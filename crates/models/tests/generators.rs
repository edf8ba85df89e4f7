//! Integration tests of the model generators: structural invariants across
//! the whole family grid.

use wootz_ir::{LayerKind, ModelIr};
use wootz_models::{
    inception, inception_mini, inception_mini_deep, inception_v2, inception_v3, resnet, resnet101,
    resnet50, resnet_mini, resnet_mini_deep, InceptionModuleSpec, InceptionSpec, ResNetSpec,
    StageSpec,
};

/// The full model's analytic parameter count (ModelSize).
fn param_count(model: &ModelIr) -> usize {
    wootz_core::stats::model_stats(model, &Default::default()).total_params
}

fn family() -> Vec<ModelIr> {
    vec![
        resnet50(100),
        resnet101(100),
        resnet_mini(10),
        resnet_mini_deep(10),
        inception_v2(100),
        inception_v3(100),
        inception_mini(10),
        inception_mini_deep(10),
    ]
}

#[test]
fn every_generated_model_round_trips_through_prototxt() {
    for model in family() {
        let text = model.to_prototxt();
        let parsed = ModelIr::parse(&text).expect("generated prototxt parses");
        assert_eq!(parsed, model, "{}", model.name());
    }
}

#[test]
fn module_ids_are_contiguous_from_zero() {
    for model in family() {
        let ids = model.conv_module_ids();
        let expected: Vec<usize> = (0..ids.len()).collect();
        assert_eq!(ids, expected, "{}", model.name());
    }
}

#[test]
fn every_module_has_prunable_convs() {
    // The paper assigns a pruning rate to every convolution module; a
    // module with nothing prunable would make that rate meaningless.
    for model in family() {
        for m in model.conv_module_ids() {
            assert!(
                !model.prunable_convs_of_module(m).is_empty(),
                "{} module {m} has no prunable convs",
                model.name()
            );
        }
    }
}

#[test]
fn classifier_is_last_and_fed_by_global_pool() {
    for model in family() {
        let last = model.layers().last().unwrap();
        assert!(
            matches!(last.kind, LayerKind::InnerProduct { .. }),
            "{}",
            model.name()
        );
        let pool = model.layer(&last.bottoms[0]).unwrap();
        assert!(
            matches!(pool.kind, LayerKind::Pooling { global: true, .. }),
            "{}",
            model.name()
        );
    }
}

#[test]
fn resnet_widths_scale_param_counts() {
    let spec = |w: usize| ResNetSpec {
        name: "probe".into(),
        input: (3, 16, 16),
        stem_filters: 8,
        stem_kernel: 3,
        stem_stride: 1,
        stem_pool: false,
        stages: vec![StageSpec {
            modules: 2,
            width: w,
            out_width: 2 * w,
            downsample: false,
        }],
        num_classes: 10,
        with_bn: false,
    };
    let small = param_count(&resnet(&spec(4)));
    let large = param_count(&resnet(&spec(16)));
    assert!(large > small * 4, "{small} vs {large}");
}

#[test]
fn inception_branches_can_be_disabled() {
    let module = InceptionModuleSpec {
        b1: 4,
        b2_reduce: 2,
        b2: 4,
        b3_reduce: 0,
        b3_mid: 0,
        b3: 0, // branch 3 disabled
        b4: 4,
        downsample: false,
    };
    let model = inception(&InceptionSpec {
        name: "two_branch".into(),
        input: (3, 8, 8),
        stem_filters: 4,
        stem_stride: 1,
        modules: vec![module, module],
        num_classes: 4,
        with_bn: false,
    });
    assert!(model.layer("inception_0_b3_reduce").is_none());
    assert!(model.layer("inception_0_b1_1x1").is_some());
    // Concat still has >= 2 bottoms, so the IR validates.
    assert_eq!(model.conv_module_ids().len(), 2);
}

#[test]
fn minis_execute_forward_in_the_engine() {
    use wootz_core::compile::{ModeToUse, MultiplexingModel};
    use wootz_nn::{forward, Mode};
    use wootz_tensor::Tensor;
    for model in [
        resnet_mini(5),
        resnet_mini_deep(5),
        inception_mini(5),
        inception_mini_deep(5),
    ] {
        let name = model.name().to_string();
        let mm = MultiplexingModel::compile(model).unwrap();
        let built = mm.build(&ModeToUse::Original, 1).unwrap();
        let x = Tensor::zeros(&[2, 3, 16, 16]);
        let mut vars = built.vars;
        let pass = forward(&built.graph, &mut vars, &[("data", &x)], Mode::Eval).unwrap();
        assert_eq!(
            pass.activation(built.logits.unwrap()).shape(),
            &[2, 5],
            "{name}"
        );
    }
}

#[test]
fn full_scale_models_have_plausible_sizes() {
    // Parameter-count sanity for the analytic accounting the simulator
    // relies on (ResNet-101 ~44.5M, Inception-V3 ~24M at 1000 classes).
    let p101 = param_count(&resnet101(1000));
    assert!((35e6..60e6).contains(&(p101 as f64)), "resnet101: {p101}");
    let p50 = param_count(&resnet50(1000));
    assert!(p101 > p50, "deeper network must be larger");
    let pv3 = param_count(&inception_v3(1000));
    let pv2 = param_count(&inception_v2(1000));
    assert!(pv3 > pv2, "V3 must be larger than V2");
}
