use crate::shape::{num_elements, strides_for, ShapeError};

/// A dense, row-major `f32` tensor.
///
/// Convolutional data uses the `NCHW` convention (`[batch, channels, height,
/// width]`); convolution weights use `[out_channels, in_channels, kh, kw]`;
/// fully-connected activations use `[batch, features]`. The type is a plain
/// data structure — it carries no autodiff state; gradients are computed by
/// the explicit kernel-backward functions in [`crate::ops`] and threaded by
/// the graph engine in `wootz-nn`.
///
/// # Examples
///
/// ```
/// use wootz_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; num_elements(shape)],
        }
    }

    /// Creates a tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Self {
        Tensor::filled(shape, 1.0)
    }

    /// Creates a tensor where every element is `value`.
    pub fn filled(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; num_elements(shape)],
        }
    }

    /// Wraps an existing buffer as a tensor.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when `data.len()` does not match the number of
    /// elements implied by `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Self, ShapeError> {
        if data.len() != num_elements(shape) {
            return Err(ShapeError::new(format!(
                "from_vec: buffer of {} elements cannot have shape {shape:?}",
                data.len()
            )));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data,
        })
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let n = num_elements(shape);
        Tensor {
            shape: shape.to_vec(),
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements (some dimension is zero).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer in row-major order.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer in row-major order.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Overwrites this tensor's buffer with `other`'s, ignoring shapes but
    /// requiring equal element counts — the arena-backed executor uses this
    /// to materialize `Flatten` (same bytes, different shape) and input
    /// copies without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the element counts differ.
    pub fn copy_data_from(&mut self, other: &Tensor) -> Result<(), ShapeError> {
        if self.data.len() != other.data.len() {
            return Err(ShapeError::mismatch(
                "copy_data_from element count",
                self.data.len(),
                other.data.len(),
            ));
        }
        self.data.copy_from_slice(&other.data);
        Ok(())
    }

    /// Reads the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds; this is a
    /// programming error in kernel code, not a recoverable condition.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Writes the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics when `index` has the wrong rank or is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(
            index.len(),
            self.shape.len(),
            "index rank {} != tensor rank {}",
            index.len(),
            self.shape.len()
        );
        let strides = strides_for(&self.shape);
        index
            .iter()
            .zip(self.shape.iter())
            .zip(strides.iter())
            .map(|((&i, &dim), &stride)| {
                assert!(i < dim, "index {i} out of bounds for dim of size {dim}");
                i * stride
            })
            .sum()
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Tensor, ShapeError> {
        if num_elements(shape) != self.data.len() {
            return Err(ShapeError::mismatch("reshape", shape, &self.shape));
        }
        Ok(Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        })
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// In-place elementwise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise binary combination of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor, ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::mismatch("zip", &self.shape, &other.shape));
        }
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Tensor {
            shape: self.shape.clone(),
            data,
        })
    }

    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip(other, |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, ShapeError> {
        self.zip(other, |a, b| a - b)
    }

    /// In-place scaled accumulation: `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), ShapeError> {
        if self.shape != other.shape {
            return Err(ShapeError::mismatch("axpy", &self.shape, &other.shape));
        }
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Sum of squares of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|&v| v * v).sum()
    }

    /// Sum of absolute values (the L1 norm used for filter importance).
    pub fn l1_norm(&self) -> f32 {
        self.data.iter().map(|&v| v.abs()).sum()
    }

    /// Resets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Selects sub-tensors along axis 0.
    ///
    /// For a conv weight `[F, C, Kh, Kw]` this extracts a subset of filters;
    /// for a bias `[F]` it extracts the matching entries. Indices may appear
    /// in any order and are taken in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the tensor is rank-0 or an index is out of
    /// bounds.
    pub fn select_axis0(&self, indices: &[usize]) -> Result<Tensor, ShapeError> {
        if self.shape.is_empty() {
            return Err(ShapeError::new("select_axis0: tensor has rank 0"));
        }
        let n = self.shape[0];
        let chunk = self.data.len() / n.max(1);
        let mut data = Vec::with_capacity(indices.len() * chunk);
        for &i in indices {
            if i >= n {
                return Err(ShapeError::new(format!(
                    "select_axis0: index {i} out of bounds for axis of size {n}"
                )));
            }
            data.extend_from_slice(&self.data[i * chunk..(i + 1) * chunk]);
        }
        let mut shape = self.shape.clone();
        shape[0] = indices.len();
        Ok(Tensor { shape, data })
    }

    /// Selects sub-tensors along axis 1.
    ///
    /// For a conv weight `[F, C, Kh, Kw]` this restricts the input channels —
    /// the adjustment a layer needs when its *predecessor* was pruned.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the tensor has rank < 2 or an index is out
    /// of bounds.
    pub fn select_axis1(&self, indices: &[usize]) -> Result<Tensor, ShapeError> {
        if self.shape.len() < 2 {
            return Err(ShapeError::new("select_axis1: tensor has rank < 2"));
        }
        let n0 = self.shape[0];
        let n1 = self.shape[1];
        let inner: usize = self.shape[2..].iter().product();
        let mut data = Vec::with_capacity(n0 * indices.len() * inner);
        for i0 in 0..n0 {
            for &i1 in indices {
                if i1 >= n1 {
                    return Err(ShapeError::new(format!(
                        "select_axis1: index {i1} out of bounds for axis of size {n1}"
                    )));
                }
                let start = (i0 * n1 + i1) * inner;
                data.extend_from_slice(&self.data[start..start + inner]);
            }
        }
        let mut shape = self.shape.clone();
        shape[1] = indices.len();
        Ok(Tensor { shape, data })
    }

    /// Concatenates tensors along axis 1 (the channel axis in `NCHW`).
    ///
    /// All inputs must agree on every dimension except axis 1. Used by the
    /// Inception-style filter-concatenation layers.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] for an empty input list, rank < 2 inputs, or
    /// mismatched non-channel dimensions.
    pub fn concat_axis1(parts: &[&Tensor]) -> Result<Tensor, ShapeError> {
        let first = parts
            .first()
            .ok_or_else(|| ShapeError::new("concat_axis1: no inputs"))?;
        if first.shape.len() < 2 {
            return Err(ShapeError::new("concat_axis1: inputs must have rank >= 2"));
        }
        let n0 = first.shape[0];
        let inner: usize = first.shape[2..].iter().product();
        let mut total_c = 0;
        for p in parts {
            if p.shape.len() != first.shape.len()
                || p.shape[0] != n0
                || p.shape[2..] != first.shape[2..]
            {
                return Err(ShapeError::mismatch("concat_axis1", &first.shape, &p.shape));
            }
            total_c += p.shape[1];
        }
        let mut shape = first.shape.clone();
        shape[1] = total_c;
        let mut data = Vec::with_capacity(n0 * total_c * inner);
        for i0 in 0..n0 {
            for p in parts {
                let c = p.shape[1];
                let start = i0 * c * inner;
                data.extend_from_slice(&p.data[start..start + c * inner]);
            }
        }
        Ok(Tensor { shape, data })
    }

    /// Splits a tensor along axis 1 into parts of the given channel widths —
    /// the inverse of [`Tensor::concat_axis1`], used by its backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the widths do not sum to the axis-1 size
    /// or the tensor has rank < 2.
    pub fn split_axis1(&self, widths: &[usize]) -> Result<Vec<Tensor>, ShapeError> {
        if self.shape.len() < 2 {
            return Err(ShapeError::new("split_axis1: tensor has rank < 2"));
        }
        let total: usize = widths.iter().sum();
        if total != self.shape[1] {
            return Err(ShapeError::new(format!(
                "split_axis1: widths sum to {total}, axis 1 has {}",
                self.shape[1]
            )));
        }
        let n0 = self.shape[0];
        let inner: usize = self.shape[2..].iter().product();
        let mut parts: Vec<Tensor> = widths
            .iter()
            .map(|&w| {
                let mut shape = self.shape.clone();
                shape[1] = w;
                Tensor {
                    shape,
                    data: Vec::with_capacity(n0 * w * inner),
                }
            })
            .collect();
        for i0 in 0..n0 {
            let row = i0 * self.shape[1] * inner;
            let mut c0 = 0;
            for (part, &w) in parts.iter_mut().zip(widths.iter()) {
                let start = row + c0 * inner;
                part.data
                    .extend_from_slice(&self.data[start..start + w * inner]);
                c0 += w;
            }
        }
        Ok(parts)
    }

    /// Index of the maximum element in each row of a `[N, K]` tensor —
    /// the predicted class per sample.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] when the tensor is not rank 2.
    pub fn argmax_rows(&self) -> Result<Vec<usize>, ShapeError> {
        if self.shape.len() != 2 {
            return Err(ShapeError::mismatch("argmax_rows", "[N, K]", &self.shape));
        }
        let (n, k) = (self.shape[0], self.shape[1]);
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let row = &self.data[i * k..(i + 1) * k];
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            out.push(best);
        }
        Ok(out)
    }
}

impl Default for Tensor {
    /// An empty rank-1 tensor.
    fn default() -> Self {
        Tensor {
            shape: vec![0],
            data: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 5], &[2, 3]).is_err());
        assert!(Tensor::from_vec(vec![1.0; 6], &[2, 3]).is_ok());
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[2, 3, 4]).unwrap();
        assert_eq!(t.at(&[0, 0, 0]), 0.0);
        assert_eq!(t.at(&[0, 0, 3]), 3.0);
        assert_eq!(t.at(&[0, 1, 0]), 4.0);
        assert_eq!(t.at(&[1, 0, 0]), 12.0);
        assert_eq!(t.at(&[1, 2, 3]), 23.0);
    }

    #[test]
    fn set_then_at_round_trips() {
        let mut t = Tensor::zeros(&[2, 2]);
        t.set(&[1, 1], 7.5);
        assert_eq!(t.at(&[1, 1]), 7.5);
        assert_eq!(t.sum(), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        let t = Tensor::zeros(&[2, 2]);
        t.at(&[2, 0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).unwrap();
        let r = t.reshape(&[2, 2]).unwrap();
        assert_eq!(r.at(&[1, 0]), 3.0);
        assert!(t.reshape(&[3]).is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9.0, 18.0]);
        assert_eq!(a.scale(3.0).data(), &[3.0, 6.0]);
        let mut c = a.clone();
        c.axpy(0.5, &b).unwrap();
        assert_eq!(c.data(), &[6.0, 12.0]);
    }

    #[test]
    fn axpy_rejects_mismatched_shapes() {
        let mut a = Tensor::zeros(&[2]);
        let b = Tensor::zeros(&[3]);
        assert!(a.axpy(1.0, &b).is_err());
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![-1.0, 2.0, -3.0], &[3]).unwrap();
        assert_eq!(t.sum(), -2.0);
        assert!((t.mean() - (-2.0 / 3.0)).abs() < 1e-6);
        assert_eq!(t.l1_norm(), 6.0);
        assert_eq!(t.sq_norm(), 14.0);
    }

    #[test]
    fn select_axis0_extracts_filters() {
        // Two "filters" of 3 elements each.
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0], &[2, 3]).unwrap();
        let sel = t.select_axis0(&[1]).unwrap();
        assert_eq!(sel.shape(), &[1, 3]);
        assert_eq!(sel.data(), &[10.0, 20.0, 30.0]);
        let reordered = t.select_axis0(&[1, 0]).unwrap();
        assert_eq!(reordered.data(), &[10.0, 20.0, 30.0, 1.0, 2.0, 3.0]);
        assert!(t.select_axis0(&[2]).is_err());
    }

    #[test]
    fn select_axis1_restricts_input_channels() {
        // Shape [2, 3, 1]: 2 filters x 3 input channels.
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3, 1]).unwrap();
        let sel = t.select_axis1(&[0, 2]).unwrap();
        assert_eq!(sel.shape(), &[2, 2, 1]);
        assert_eq!(sel.data(), &[1., 3., 4., 6.]);
        assert!(t.select_axis1(&[3]).is_err());
    }

    #[test]
    fn concat_and_split_axis1_round_trip() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 1, 2]).unwrap();
        let b = Tensor::from_vec(vec![10., 20., 30., 40., 50., 60., 70., 80.], &[2, 2, 2]).unwrap();
        let cat = Tensor::concat_axis1(&[&a, &b]).unwrap();
        assert_eq!(cat.shape(), &[2, 3, 2]);
        assert_eq!(
            cat.data(),
            &[1., 2., 10., 20., 30., 40., 3., 4., 50., 60., 70., 80.]
        );
        let parts = cat.split_axis1(&[1, 2]).unwrap();
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn concat_axis1_rejects_mismatches() {
        let a = Tensor::zeros(&[2, 1, 2]);
        let b = Tensor::zeros(&[3, 1, 2]);
        assert!(Tensor::concat_axis1(&[&a, &b]).is_err());
        assert!(Tensor::concat_axis1(&[]).is_err());
    }

    #[test]
    fn split_axis1_validates_widths() {
        let t = Tensor::zeros(&[1, 4, 1]);
        assert!(t.split_axis1(&[2, 3]).is_err());
        assert_eq!(t.split_axis1(&[2, 2]).unwrap().len(), 2);
    }

    #[test]
    fn argmax_rows_picks_predictions() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.5, 0.2], &[2, 2]).unwrap();
        assert_eq!(t.argmax_rows().unwrap(), vec![1, 0]);
        assert!(Tensor::zeros(&[4]).argmax_rows().is_err());
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, -2.0], &[2]).unwrap();
        assert_eq!(a.map(f32::abs).data(), &[1.0, 2.0]);
        let b = Tensor::ones(&[2]);
        assert_eq!(a.zip(&b, |x, y| x * y + 1.0).unwrap().data(), &[2.0, -1.0]);
        assert!(a.zip(&Tensor::ones(&[3]), |x, _| x).is_err());
    }

    #[test]
    fn default_is_empty_and_debug_nonempty() {
        let t = Tensor::default();
        assert!(t.is_empty());
        assert!(!format!("{t:?}").is_empty());
    }
}
