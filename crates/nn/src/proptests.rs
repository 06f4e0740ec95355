//! Property-based tests: random op compositions must pass the
//! finite-difference gradient check, and optimizer/parameter invariants
//! must hold for arbitrary shapes.

use crate::absint::{propagate, AbsintConfig};
use crate::gradcheck::check_gradients;
use crate::lint::{lint_graph, LintConfig};
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::{Adam, Optimizer};
use hiergat_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The unary ops exercised by the random-composition property.
#[derive(Debug, Clone, Copy)]
enum UnaryOp {
    Relu,
    LeakyRelu,
    Tanh,
    Sigmoid,
    Gelu,
    Softmax,
    Scale,
    AddScalar,
    Transpose2,
}

fn arb_unary() -> impl Strategy<Value = UnaryOp> {
    prop_oneof![
        Just(UnaryOp::Relu),
        Just(UnaryOp::LeakyRelu),
        Just(UnaryOp::Tanh),
        Just(UnaryOp::Sigmoid),
        Just(UnaryOp::Gelu),
        Just(UnaryOp::Softmax),
        Just(UnaryOp::Scale),
        Just(UnaryOp::AddScalar),
        Just(UnaryOp::Transpose2),
    ]
}

fn apply(t: &mut Tape, op: UnaryOp, x: Var) -> Var {
    match op {
        UnaryOp::Relu => t.relu(x),
        UnaryOp::LeakyRelu => t.leaky_relu(x, 0.2),
        UnaryOp::Tanh => t.tanh(x),
        UnaryOp::Sigmoid => t.sigmoid(x),
        UnaryOp::Gelu => t.gelu(x),
        UnaryOp::Softmax => t.softmax(x),
        UnaryOp::Scale => t.scale(x, 0.7),
        UnaryOp::AddScalar => t.add_scalar(x, -0.3),
        UnaryOp::Transpose2 => {
            let tr = t.transpose(x);
            t.transpose(tr)
        }
    }
}

/// Step codes for the absint soundness property (indexes into
/// [`apply_abs_step`]'s match; a plain range composes with proptest
/// shrinking better than a 30-variant enum strategy).
const ABS_STEPS: usize = 30;

fn fresh_input(t: &mut Tape, rng: &mut StdRng, rows: usize, cols: usize, b: f32) -> Var {
    t.input(Tensor::rand_uniform(rows, cols, -b, b, rng))
}

/// Largest absolute eager value at `x` (the chain's growth monitor).
fn eager_mag(t: &Tape, x: Var) -> f32 {
    let v = t.value(x);
    v.max().abs().max(v.min().abs())
}

/// Squashes `x` before magnitude-growing steps so random chains cannot
/// overflow the eager tape (which panics on non-finite values in debug);
/// the squash is itself a recorded op and so also containment-checked.
fn squash_if_large(t: &mut Tape, x: Var) -> Var {
    if eager_mag(t, x) > 1e15 {
        t.tanh(x)
    } else {
        x
    }
}

/// Applies one random chain step, returning the new head and its shape.
/// Domain-restricted ops (exp/ln/sqrt/div) get their inputs guarded the
/// same way real models do — via bounded activations and epsilon shifts —
/// so the eager pass stays finite while the abstract pass still has to
/// prove it.
fn apply_abs_step(
    t: &mut Tape,
    rng: &mut StdRng,
    step: usize,
    x: Var,
    r: usize,
    c: usize,
    b: f32,
) -> (Var, usize, usize) {
    match step {
        0 => (t.relu(x), r, c),
        1 => (t.leaky_relu(x, 0.2), r, c),
        2 => (t.tanh(x), r, c),
        3 => (t.sigmoid(x), r, c),
        4 => (t.gelu(x), r, c),
        5 => (t.softmax(x), r, c),
        6 => (t.log_softmax(x), r, c),
        7 => {
            // exp over a genuinely wide but provably bounded input.
            let h = t.tanh(x);
            let wide = t.scale(h, 8.0);
            (t.exp(wide), r, c)
        }
        8 => {
            // ln of a proven-positive interval (square + epsilon).
            let h = t.tanh(x);
            let sq = t.mul(h, h);
            let shifted = t.add_scalar(sq, 0.5);
            (t.ln(shifted), r, c)
        }
        9 => {
            let h = t.tanh(x);
            let sq = t.mul(h, h);
            let shifted = t.add_scalar(sq, 0.1);
            (t.sqrt(shifted), r, c)
        }
        10 => {
            // Division by a proven-positive denominator in [1, 2].
            let h = t.tanh(x);
            let sq = t.mul(h, h);
            let den = t.add_scalar(sq, 1.0);
            (t.div(x, den), r, c)
        }
        11 => (t.scale(x, -0.7), r, c),
        12 => (t.add_scalar(x, 0.3), r, c),
        13 => {
            // The softmax max-subtraction stabilizer pattern.
            let m = t.max_cols(x);
            let neg = t.scale(m, -1.0);
            (t.add_col(x, neg), r, c)
        }
        14 => {
            let s = squash_if_large(t, x);
            (t.mul(s, s), r, c)
        }
        15 => {
            let f = fresh_input(t, rng, r, c, b);
            (t.add(x, f), r, c)
        }
        16 => {
            let f = fresh_input(t, rng, r, c, b);
            (t.sub(x, f), r, c)
        }
        17 => {
            let col = fresh_input(t, rng, r, 1, b);
            (t.mul_col(x, col), r, c)
        }
        18 => {
            let s = squash_if_large(t, x);
            let k = 2 + (r + c) % 3;
            let f = fresh_input(t, rng, c, k, b);
            (t.matmul(s, f), r, k)
        }
        19 => {
            let tr = t.transpose(x);
            (tr, c, r)
        }
        20 => {
            if c >= 4 {
                (t.slice_cols(x, 1, c - 1), r, c - 1)
            } else {
                (t.concat_cols(&[x, x]), r, c * 2)
            }
        }
        21 => (t.dropout(x, 0.3, true, rng), r, c),
        22 => {
            let row = fresh_input(t, rng, 1, c, b);
            (t.add_row(x, row), r, c)
        }
        23 => {
            let s = squash_if_large(t, x);
            let k = 2 + (r + c) % 3;
            let f = fresh_input(t, rng, k, c, b);
            (t.matmul_nt(s, f), r, k)
        }
        24 => {
            let s = squash_if_large(t, x);
            let k = 2 + (r + c) % 3;
            let f = fresh_input(t, rng, r, k, b);
            (t.matmul_tn(s, f), c, k)
        }
        25 => (t.sum_rows(x), 1, c),
        26 => (t.sum_cols(x), r, 1),
        27 => {
            if r >= 4 {
                (t.slice_rows(x, 1, r - 1), r - 1, c)
            } else {
                (t.concat_rows(&[x, x]), r * 2, c)
            }
        }
        28 => (t.gather_rows(x, &[0, r - 1, 0]), 3, c),
        _ => {
            // LayerNorm needs in-f32-range row statistics; models feed it
            // bounded activations, mirrored here.
            let h = t.tanh(x);
            let wide = t.scale(h, 50.0);
            let gamma = fresh_input(t, rng, 1, c, b);
            let beta = fresh_input(t, rng, 1, c, b);
            (t.layer_norm(wide, gamma, beta, 1e-5), r, c)
        }
    }
}

/// Terminal step: reductions and the loss kernels (which demand specific
/// shapes, so they close the chain rather than extend it). Returns the
/// loss node so callers can treat it as the chain's root.
fn apply_abs_terminal(
    t: &mut Tape,
    rng: &mut StdRng,
    terminal: usize,
    x: Var,
    r: usize,
    c: usize,
) -> Var {
    match terminal {
        0 => t.mean_all(x),
        1 => t.sum_all(x),
        2 => {
            let targets: Vec<usize> = (0..r).map(|i| i % c).collect();
            t.cross_entropy_logits(x, &targets)
        }
        3 => {
            let targets: Vec<usize> = (0..r).map(|i| i % c).collect();
            let weights = vec![0.5f32; r];
            t.weighted_cross_entropy_logits(x, &targets, &weights)
        }
        4 => {
            let col = t.slice_cols(x, 0, 1);
            let targets: Vec<f32> = Tensor::rand_uniform(r, 1, 0.0, 1.0, rng).as_slice().to_vec();
            t.bce_with_logits(col, &targets)
        }
        _ => {
            // MSE squares the difference, so squash first to keep the
            // eager pass finite on huge chains.
            let h = t.tanh(x);
            let target = Tensor::rand_uniform(r, c, -1.0, 1.0, rng);
            t.mse_loss(h, &target)
        }
    }
}

/// Strategy: a tensor with dims in `[1, max_dim]` and values in [-10, 10].
fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Tensor::from_vec(r, c, data).expect("sized"))
    })
}

proptest! {
    /// ReLU through the shared forward kernel is idempotent and
    /// non-negative.
    #[test]
    fn relu_is_idempotent(x in arb_tensor(6)) {
        let mut t = Tape::new();
        let x = t.input(x);
        let r = t.relu(x);
        let rr = t.relu(r);
        prop_assert!(t.value(rr).allclose(t.value(r), 0.0));
        prop_assert!(t.value(r).as_slice().iter().all(|&v| v >= 0.0));
    }

    /// Slicing a concatenation back apart returns each part bitwise.
    #[test]
    fn concat_then_slice_roundtrip(x in arb_tensor(5)) {
        let u = x.map(|v| v + 2.0);
        let (rows, cols) = x.shape();
        let mut t = Tape::new();
        let (a, b) = (t.input(x), t.input(u));
        let cat = t.concat_cols(&[a, b]);
        let left = t.slice_cols(cat, 0, cols);
        let right = t.slice_cols(cat, cols, cols);
        prop_assert!(t.value(left).allclose(t.value(a), 0.0));
        prop_assert!(t.value(right).allclose(t.value(b), 0.0));
        let vcat = t.concat_rows(&[a, b]);
        let bottom = t.slice_rows(vcat, rows, rows);
        prop_assert!(t.value(bottom).allclose(t.value(b), 0.0));
    }

    /// A one-index gather copies exactly that row of the table.
    #[test]
    fn gather_rows_picks_rows(x in arb_tensor(6), seed in 0usize..100) {
        let idx = seed % x.rows();
        let mut t = Tape::new();
        let table = t.input(x);
        let g = t.gather_rows(table, &[idx]);
        prop_assert_eq!(t.value(g).row(0), t.value(table).row(idx));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any chain of smooth unary ops on a square parameter passes gradcheck.
    ///
    /// ReLU-family kinks can sit exactly at a sampled point, so the check
    /// tolerates a small number of borderline scalars rather than requiring
    /// a perfect match.
    #[test]
    fn random_unary_chains_pass_gradcheck(
        seed in 0u64..1000,
        ops in proptest::collection::vec(arb_unary(), 1..4),
        dim in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(dim, dim, 0.0, 0.8, &mut rng));
        let mismatches = check_gradients(
            &mut ps,
            |t, ps| {
                let mut x = t.param(ps, w);
                for &op in &ops {
                    x = apply(t, op, x);
                }
                t.mean_all(x)
            },
            1e-3,
            5e-2,
        );
        // Allow at most one kink-adjacent scalar out of dim*dim.
        prop_assert!(
            mismatches.len() <= 1,
            "ops {:?}: {} mismatches, first {:?}",
            ops,
            mismatches.len(),
            mismatches.first()
        );
    }

    /// Binary compositions (add/sub/mul/matmul) of two parameters pass
    /// gradcheck.
    #[test]
    fn random_binary_compositions_pass_gradcheck(
        seed in 0u64..1000,
        which in 0usize..4,
        rows in 2usize..4,
        cols in 2usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let a = ps.add("a", Tensor::rand_normal(rows, cols, 0.0, 0.8, &mut rng));
        let b_shape = if which == 3 { (cols, rows) } else { (rows, cols) };
        let b = ps.add("b", Tensor::rand_normal(b_shape.0, b_shape.1, 0.0, 0.8, &mut rng));
        let mismatches = check_gradients(
            &mut ps,
            |t, ps| {
                let av = t.param(ps, a);
                let bv = t.param(ps, b);
                let y = match which {
                    0 => t.add(av, bv),
                    1 => t.sub(av, bv),
                    2 => t.mul(av, bv),
                    _ => t.matmul(av, bv),
                };
                let y = t.tanh(y);
                t.mean_all(y)
            },
            1e-3,
            4e-2,
        );
        prop_assert!(mismatches.is_empty(), "{:?}", mismatches.first());
    }

    /// Adam never produces non-finite parameters on bounded gradients.
    #[test]
    fn adam_keeps_parameters_finite(
        seed in 0u64..500,
        lr in 1e-4f32..0.5,
        steps in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_normal(3, 3, 0.0, 1.0, &mut rng));
        let mut opt = Adam::new(lr);
        for k in 0..steps {
            let grad = Tensor::rand_normal(3, 3, 0.0, 1.0 + k as f32, &mut rng);
            ps.accumulate_grad(w, &grad);
            opt.step(&mut ps);
            ps.zero_grad();
            prop_assert!(!ps.value(w).has_non_finite());
        }
    }

    /// Snapshot/restore is an exact inverse regardless of store contents.
    #[test]
    fn snapshot_restore_roundtrip(seed in 0u64..500, n_params in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let ids: Vec<_> = (0..n_params)
            .map(|i| ps.add(format!("p{i}"), Tensor::rand_normal(2, 3, 0.0, 1.0, &mut rng)))
            .collect();
        let snap = ps.snapshot();
        // Trash the values.
        for &id in &ids {
            *ps.value_mut(id) = Tensor::zeros(2, 3);
        }
        ps.restore(&snap);
        for (i, &id) in ids.iter().enumerate() {
            prop_assert!(ps.value(id).allclose(&snap[i], 0.0));
        }
    }

    /// Fusing `matmul(a, transpose(b))` into `matmul_nt(a, b)` (and the
    /// `transpose`-on-the-left variant into `matmul_tn`) keeps lint-clean
    /// graphs clean: the unfused form's only diagnostic is the fusion hint
    /// itself, and the rewritten graph has none at all.
    #[test]
    fn matmul_fusion_rewrites_preserve_lint_cleanliness(
        seed in 0u64..500,
        rows in 2usize..5,
        k in 2usize..5,
        cols in 2usize..5,
        post in arb_unary(),
        lhs_side in 0usize..2,
    ) {
        let lhs_variant = lhs_side == 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let a_t = Tensor::rand_normal(rows, k, 0.0, 0.8, &mut rng);
        // Shape b so the transpose-side product is well-formed in both
        // variants: rhs needs (cols x k), lhs needs (rows x cols).
        let b_t = if lhs_variant {
            Tensor::rand_normal(rows, cols, 0.0, 0.8, &mut rng)
        } else {
            Tensor::rand_normal(cols, k, 0.0, 0.8, &mut rng)
        };
        let build = |fused: bool| {
            let mut ps = ParamStore::new();
            let a = ps.add("a", a_t.clone());
            let b = ps.add("b", b_t.clone());
            let mut t = Tape::inference();
            let av = t.param(&ps, a);
            let bv = t.param(&ps, b);
            let prod = match (fused, lhs_variant) {
                (false, false) => {
                    let bt = t.transpose(bv);
                    t.matmul(av, bt)
                }
                (true, false) => t.matmul_nt(av, bv),
                (false, true) => {
                    let at = t.transpose(av);
                    t.matmul(at, bv)
                }
                (true, true) => t.matmul_tn(av, bv),
            };
            let y = apply(&mut t, post, prod);
            let loss = t.mean_all(y);
            (lint_graph(&t, loss, &ps, &LintConfig::training()), t.shape_violations().len())
        };
        let (unfused_report, unfused_violations) = build(false);
        let (fused_report, fused_violations) = build(true);
        prop_assert_eq!(unfused_violations, 0, "unfused variant must shape-check");
        prop_assert_eq!(fused_violations, 0, "fused variant must shape-check");
        // The unfused graph's only complaint is the fusion hint itself...
        prop_assert!(
            unfused_report
                .diagnostics
                .iter()
                .all(|d| d.rule == "unfused-transpose-matmul"),
            "unexpected diagnostics before rewrite: {}",
            unfused_report
        );
        // ...and applying the suggested rewrite leaves the graph fully clean.
        prop_assert!(
            fused_report.diagnostics.is_empty(),
            "fusion rewrite introduced diagnostics: {}",
            fused_report
        );
    }

    /// The inference planner's core invariants hold on random op chains:
    /// every slot fits inside the arena, any two slots whose live intervals
    /// overlap get disjoint spans (the aliasing invariant the executor's
    /// correctness rests on), and the planned size is sandwiched between
    /// the liveness-theoretic lower bound and the no-reuse naive sum.
    #[test]
    fn planner_spans_are_disjoint_and_bounded(
        seed in 0u64..1000,
        ops in proptest::collection::vec(arb_unary(), 1..5),
        rows in 2usize..6,
        cols in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ps = ParamStore::new();
        let a = ps.add("a", Tensor::rand_normal(rows, cols, 0.0, 0.8, &mut rng));
        let b = ps.add("b", Tensor::rand_normal(rows, cols, 0.0, 0.8, &mut rng));
        let mut t = Tape::inference();
        let av = t.param(&ps, a);
        let bv = t.param(&ps, b);
        let sum = t.add(av, bv);
        let mut x = sum;
        for &op in &ops {
            x = apply(&mut t, op, x);
        }
        // Fan the first sum back in so one arena value stays live across the
        // whole chain, forcing overlapping intervals.
        let y = t.mul(x, sum);
        let out = t.mean_all(y);
        let plan = crate::plan::ExecutionPlan::build_inference(&t, out);
        let report = plan.report();
        let elems = plan.arena_elems();
        prop_assert_eq!(report.arena_bytes, (elems * size_of::<f32>()) as u64);
        for s in plan.slots() {
            prop_assert!(s.start_time <= s.end_time, "inverted interval {s:?}");
            prop_assert!(s.span.start + s.span.len <= elems, "slot out of arena: {s:?}");
        }
        for (i, si) in plan.slots().iter().enumerate() {
            for sj in &plan.slots()[i + 1..] {
                let live_overlap = si.start_time <= sj.end_time && sj.start_time <= si.end_time;
                if live_overlap && si.span.len > 0 && sj.span.len > 0 {
                    let disjoint = si.span.start + si.span.len <= sj.span.start
                        || sj.span.start + sj.span.len <= si.span.start;
                    prop_assert!(disjoint, "aliasing live slots: {si:?} vs {sj:?}");
                }
            }
        }
        prop_assert!(report.arena_bytes >= report.lower_bound_bytes, "{report}");
        prop_assert!(report.arena_bytes <= report.naive_bytes, "{report}");
    }

    /// Per-op abstract-interpretation soundness: every concrete value an
    /// eager forward pass produces lies inside the proven interval, for
    /// every node of a random op chain, under both symbolic-box and
    /// observed seeding. A failure here means a transfer function in
    /// `absint` is not conservative for the f32 kernels.
    #[test]
    fn abstract_intervals_contain_eager_values(
        seed in 0u64..2000,
        steps in proptest::collection::vec(0usize..ABS_STEPS, 1..6),
        terminal in 0usize..6,
        rows in 2usize..5,
        cols in 2usize..5,
        bound in 0.5f64..4.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = bound as f32;
        let mut t = Tape::new();
        let mut x = fresh_input(&mut t, &mut rng, rows, cols, b);
        let (mut r, mut c) = (rows, cols);
        for &s in &steps {
            (x, r, c) = apply_abs_step(&mut t, &mut rng, s, x, r, c, b);
        }
        apply_abs_terminal(&mut t, &mut rng, terminal, x, r, c);
        let ps = ParamStore::new();
        for cfg in [AbsintConfig::symbolic(bound, bound), AbsintConfig::observed()] {
            let iv = propagate(&t, &ps, &cfg);
            for (i, node_iv) in iv.iter().enumerate() {
                for &v in t.node_value(i).as_slice() {
                    prop_assert!(
                        node_iv.contains(v),
                        "op #{} ({}) value {} escapes {:?} under {} (steps {:?})",
                        i,
                        t.op_name(i),
                        v,
                        node_iv,
                        cfg.describe(),
                        steps
                    );
                }
            }
        }
    }

    /// The certified tape optimiser preserves random-chain semantics at
    /// widths 1 and 8: every applied rewrite carries a valid certificate,
    /// the optimised root agrees with the original element-wise (bitwise
    /// unless the reassociating ln∘softmax fusion fired, in which case
    /// allclose), and observed-seeding interval propagation over the
    /// REWRITTEN graph still contains every value it computes.
    #[test]
    fn optimiser_preserves_random_chain_semantics(
        seed in 0u64..2000,
        steps in proptest::collection::vec(0usize..ABS_STEPS, 1..9),
        terminal in 0usize..6,
        bound in 0.5f64..4.0,
    ) {
        let b = bound as f32;
        for rows in [1usize, 8] {
            let cols = 3;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Tape::new();
            let mut x = fresh_input(&mut t, &mut rng, rows, cols, b);
            let (mut r, mut c) = (rows, cols);
            for &s in &steps {
                (x, r, c) = apply_abs_step(&mut t, &mut rng, s, x, r, c, b);
            }
            let root = apply_abs_terminal(&mut t, &mut rng, terminal, x, r, c);
            let ps = ParamStore::new();
            let opt = crate::optimize::optimize(
                &t,
                root,
                &ps,
                &crate::optimize::OptimizeConfig::verified(),
            );
            prop_assert!(opt.report.all_valid(), "invalid certificates: {}", opt.report);
            let orig = t.value(root);
            let new = opt.tape.value(opt.root);
            prop_assert_eq!(orig.shape(), new.shape(), "root shape changed");
            let reassociated =
                opt.report.certificates.iter().any(|ce| ce.rule == "fuse-log-softmax");
            for (&a, &g) in orig.as_slice().iter().zip(new.as_slice()) {
                if reassociated {
                    prop_assert!(
                        (a - g).abs() <= 1e-4 * (1.0 + a.abs()),
                        "allclose violated after reassociating fusion: {a} vs {g}"
                    );
                } else {
                    prop_assert_eq!(
                        a.to_bits(),
                        g.to_bits(),
                        "bitwise equality violated (steps {:?}, rows {}): {} vs {}",
                        steps, rows, a, g
                    );
                }
            }
            let iv = propagate(&opt.tape, &ps, &AbsintConfig::observed());
            for (i, node_iv) in iv.iter().enumerate() {
                for &v in opt.tape.node_value(i).as_slice() {
                    prop_assert!(
                        node_iv.contains(v),
                        "rewritten op #{} ({}) value {} escapes {:?} (steps {:?})",
                        i,
                        opt.tape.op_name(i),
                        v,
                        node_iv,
                        steps
                    );
                }
            }
        }
    }

    /// The audit-driven quantiser round-trips every value inside the
    /// proven interval within the scale-derived bound (half an int8 grid
    /// step, one f16 rounding ulp), and *rejects* values outside the
    /// proven interval — never silently clamps them onto the grid.
    #[test]
    fn quantiser_roundtrip_is_bounded_and_out_of_interval_is_rejected(
        seed in 0u64..2000,
        lo in -100.0f64..100.0,
        width in 0.001f64..50.0,
        rows in 1usize..5,
        cols in 1usize..5,
    ) {
        use crate::quant::{encode_checked, Codec, QuantClass, QuantError};
        let mut rng = StdRng::seed_from_u64(seed);
        let hi = lo + width;
        let mut ps = ParamStore::new();
        let w = ps.add("w", Tensor::rand_uniform(rows, cols, lo as f32, hi as f32, &mut rng));
        let mut t = Tape::inference();
        let wv = t.param(&ps, w);
        let report = crate::absint::audit_graph(
            &t,
            wv,
            &ps,
            &AbsintConfig::weight_aware(8.0),
        );
        let entry = report
            .quant
            .iter()
            .find(|e| e.op_index == wv.index())
            .expect("param feasibility entry");
        let range = &report.ranges[wv.index()];
        let codec = Codec::from_entry(entry);
        let vals = ps.value(w).as_slice();

        // In-interval values encode, and every round-trip stays inside the
        // codec's scale-derived bound.
        let data = encode_checked(vals, range.lo, range.hi, &codec, "w")
            .expect("in-interval values must encode");
        let mut back = vec![0.0; vals.len()];
        data.decode_into(&codec, &mut back);
        for (&v, &d) in vals.iter().zip(&back) {
            let bound = codec.roundtrip_bound(v);
            prop_assert!(
                (d - v).abs() <= bound,
                "{} round-trip {v} -> {d} exceeds bound {bound} (scale {})",
                codec.class.name(),
                codec.scale
            );
        }

        // A value past the proven upper bound is rejected, not clamped.
        if codec.class != QuantClass::F32 {
            let outside = (range.hi + 1.0) as f32;
            let mut poisoned = vals.to_vec();
            poisoned[0] = outside;
            let err = encode_checked(&poisoned, range.lo, range.hi, &codec, "w").expect_err("poisoned value rejected");
            prop_assert!(
                matches!(err, QuantError::OutOfInterval { .. }),
                "expected rejection, got {err:?}"
            );
        }
    }

    /// Weighted cross-entropy equals plain cross-entropy at unit weights.
    #[test]
    fn weighted_ce_reduces_to_plain_ce(
        seed in 0u64..500,
        n in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = Tensor::rand_normal(n, 2, 0.0, 1.5, &mut rng);
        let targets: Vec<usize> = (0..n).map(|i| i % 2).collect();
        let weights = vec![1.0f32; n];
        let mut t = Tape::new();
        let l = t.input(logits.clone());
        let plain = t.cross_entropy_logits(l, &targets);
        let l2 = t.input(logits);
        let weighted = t.weighted_cross_entropy_logits(l2, &targets, &weights);
        let a = t.value(plain).item();
        let b = t.value(weighted).item();
        prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
    }
}
