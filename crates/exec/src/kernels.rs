//! Kernel implementations for the pure (stateless) operations, plus the
//! per-op cost estimation used to model device time.

use dcf_device::{CostModel, OpCost};
use dcf_graph::OpKind;
use dcf_tensor::{DType, Shape, Tensor};

/// Executes a pure operation on concrete input values.
///
/// Control-flow, resource, communication, and source operations are handled
/// by the executor itself and must not be passed here.
pub fn execute_op(op: &OpKind, inputs: &[&Tensor]) -> Result<Vec<Tensor>, String> {
    let e = |s: dcf_tensor::TensorError| s.to_string();
    let one = |t: Tensor| Ok(vec![t]);
    match op {
        OpKind::Add => one(inputs[0].add(inputs[1]).map_err(e)?),
        OpKind::AddN => {
            let mut acc = inputs[0].clone();
            for t in &inputs[1..] {
                acc = acc.add(t).map_err(e)?;
            }
            one(acc)
        }
        OpKind::Sub => one(inputs[0].sub(inputs[1]).map_err(e)?),
        OpKind::Mul => one(inputs[0].mul(inputs[1]).map_err(e)?),
        OpKind::Div => one(inputs[0].div(inputs[1]).map_err(e)?),
        OpKind::Maximum => one(inputs[0].maximum(inputs[1]).map_err(e)?),
        OpKind::Minimum => one(inputs[0].minimum(inputs[1]).map_err(e)?),
        OpKind::Neg => one(inputs[0].neg().map_err(e)?),
        OpKind::Exp => one(inputs[0].exp().map_err(e)?),
        OpKind::Log => one(inputs[0].log().map_err(e)?),
        OpKind::Sqrt => one(inputs[0].sqrt().map_err(e)?),
        OpKind::Square => one(inputs[0].square().map_err(e)?),
        OpKind::Abs => one(inputs[0].abs().map_err(e)?),
        OpKind::Sigmoid => one(inputs[0].sigmoid().map_err(e)?),
        OpKind::Tanh => one(inputs[0].tanh().map_err(e)?),
        OpKind::Relu => one(inputs[0].relu().map_err(e)?),
        OpKind::Softmax => one(inputs[0].softmax_last_axis().map_err(e)?),
        OpKind::ArgMax => one(inputs[0].argmax_last_axis().map_err(e)?),
        OpKind::MatMul { transpose_a, transpose_b } => {
            one(inputs[0].matmul_t(inputs[1], *transpose_a, *transpose_b).map_err(e)?)
        }
        OpKind::Transpose => one(inputs[0].transpose().map_err(e)?),
        OpKind::ReduceSumAll => one(inputs[0].reduce_sum_all().map_err(e)?),
        OpKind::ReduceMeanAll => one(inputs[0].reduce_mean_all().map_err(e)?),
        OpKind::ReduceMaxAll => one(inputs[0].reduce_max_all().map_err(e)?),
        OpKind::ReduceSumAxis { axis, keep_dims } => {
            one(inputs[0].reduce_sum_axis(*axis, *keep_dims).map_err(e)?)
        }
        OpKind::ReduceMeanAxis { axis, keep_dims } => {
            one(inputs[0].reduce_mean_axis(*axis, *keep_dims).map_err(e)?)
        }
        OpKind::ReduceMaxAxis { axis, keep_dims } => {
            one(inputs[0].reduce_max_axis(*axis, *keep_dims).map_err(e)?)
        }
        OpKind::Reshape { dims } => one(inputs[0].reshape(dims).map_err(e)?),
        OpKind::BroadcastTo { dims } => one(inputs[0].broadcast_to(dims).map_err(e)?),
        OpKind::Cast { dtype } => one(inputs[0].cast(*dtype)),
        OpKind::Identity | OpKind::StopGradient | OpKind::LoopCond => one(inputs[0].clone()),
        OpKind::ZerosLike => one(Tensor::zeros(inputs[0].dtype(), inputs[0].shape().dims())),
        OpKind::OnesLike => one(Tensor::ones(inputs[0].shape().dims())),
        OpKind::OneHot { depth } => one(inputs[0].one_hot(*depth).map_err(e)?),
        OpKind::Less => one(inputs[0].less(inputs[1]).map_err(e)?),
        OpKind::LessEqual => one(inputs[0].less_equal(inputs[1]).map_err(e)?),
        OpKind::Greater => one(inputs[0].greater(inputs[1]).map_err(e)?),
        OpKind::GreaterEqual => one(inputs[0].greater_equal(inputs[1]).map_err(e)?),
        OpKind::Equal => one(inputs[0].equal(inputs[1]).map_err(e)?),
        OpKind::LogicalAnd => one(inputs[0].logical_and(inputs[1]).map_err(e)?),
        OpKind::LogicalOr => one(inputs[0].logical_or(inputs[1]).map_err(e)?),
        OpKind::LogicalNot => one(inputs[0].logical_not().map_err(e)?),
        OpKind::Select => one(Tensor::select(inputs[0], inputs[1], inputs[2]).map_err(e)?),
        OpKind::Concat0 => {
            let ts: Vec<Tensor> = inputs.iter().map(|t| (*t).clone()).collect();
            one(Tensor::concat0(&ts).map_err(e)?)
        }
        OpKind::Concat1 => {
            let ts: Vec<Tensor> = inputs.iter().map(|t| (*t).clone()).collect();
            one(Tensor::concat1(&ts).map_err(e)?)
        }
        OpKind::Split1 { n } => inputs[0].split1(*n).map_err(e),
        OpKind::Pack => {
            let ts: Vec<Tensor> = inputs.iter().map(|t| (*t).clone()).collect();
            one(Tensor::stack(&ts).map_err(e)?)
        }
        OpKind::ReduceToLike => one(inputs[0].reduce_to(inputs[1].shape()).map_err(e)?),
        OpKind::BroadcastLike => {
            one(inputs[0].broadcast_to(inputs[1].shape().dims()).map_err(e)?)
        }
        OpKind::ExpandDims { axis } => one(inputs[0].expand_dims(*axis).map_err(e)?),
        OpKind::ReshapeLike => one(inputs[0].reshape_like(inputs[1].shape()).map_err(e)?),
        OpKind::SizeF32 => one(inputs[0].size_f32()),
        OpKind::DimSizeF32 { axis } => one(inputs[0].dim_size_f32(*axis).map_err(e)?),
        OpKind::Concat0Grad { index } => {
            let offset: usize = inputs[1..1 + index].iter().map(|t| t.shape().dim(0)).sum();
            let count = inputs[1 + index].shape().dim(0);
            one(inputs[0].slice_rows(offset, count).map_err(e)?)
        }
        OpKind::Concat1Grad { index } => {
            let offset: usize = inputs[1..1 + index].iter().map(|t| t.shape().dim(1)).sum();
            let width = inputs[1 + index].shape().dim(1);
            one(inputs[0].slice_cols(offset, width).map_err(e)?)
        }
        OpKind::Index0Grad => {
            let idx = inputs[2].scalar_as_i64().map_err(e)?;
            one(inputs[0].index0_grad(inputs[1], idx).map_err(e)?)
        }
        OpKind::Index0 => {
            let idx = inputs[1].scalar_as_i64().map_err(e)?;
            one(inputs[0].index0(idx).map_err(e)?)
        }
        OpKind::Gather0 => one(inputs[0].gather0(inputs[1]).map_err(e)?),
        OpKind::ScatterAdd0 { rows } => {
            one(Tensor::scatter_add0(*rows, inputs[0], inputs[1]).map_err(e)?)
        }
        OpKind::Fused(spec) => one(execute_fused(spec, inputs)?),
        other => Err(format!("execute_op called on non-pure op {}", other.name())),
    }
}

/// Executes a fused elementwise program in one pass.
///
/// Fast path (all-`f32` inputs that are either full-size with identical
/// dims or single-element broadcasts): a register-file interpreter runs
/// the whole program per element, touching one output allocation instead
/// of one per chain link. Anything else falls back to evaluating the
/// steps with ordinary tensor ops (full broadcasting semantics).
fn execute_fused(spec: &dcf_graph::FusedSpec, inputs: &[&Tensor]) -> Result<Tensor, String> {
    if inputs.len() != spec.n_inputs {
        return Err(format!(
            "Fused({}): expected {} inputs, got {}",
            spec.label,
            spec.n_inputs,
            inputs.len()
        ));
    }
    if spec.steps.is_empty() {
        return Err(format!("Fused({}): empty program", spec.label));
    }
    for (k, step) in spec.steps.iter().enumerate() {
        let live = spec.n_inputs + k;
        // `b` is ignored for unary ops but must still be in bounds (the
        // interpreter indexes it unconditionally; the pass emits 0).
        let b_bound = if step.op.arity() == 2 { live } else { spec.n_inputs + spec.steps.len() };
        if step.a >= live || step.b >= b_bound {
            return Err(format!(
                "Fused({}): step {k} reads a register that is not yet written",
                spec.label
            ));
        }
    }

    // Fast-path eligibility.
    let mut slices: Vec<&[f32]> = Vec::with_capacity(inputs.len());
    let mut fast = true;
    for t in inputs {
        match t.as_f32_slice() {
            Ok(s) => slices.push(s),
            Err(_) => {
                fast = false;
                break;
            }
        }
    }
    let mut out_dims: Option<&[usize]> = None;
    if fast {
        for t in inputs {
            if t.num_elements() == 1 {
                continue;
            }
            match out_dims {
                None => out_dims = Some(t.shape().dims()),
                Some(d) if d == t.shape().dims() => {}
                _ => {
                    fast = false;
                    break;
                }
            }
        }
        // All-single-element inputs with differing shapes (e.g. `[]` vs
        // `[1]`) need real broadcasting to pick the output rank.
        if fast && out_dims.is_none() {
            let d0 = inputs[0].shape().dims();
            if inputs.iter().all(|t| t.shape().dims() == d0) {
                out_dims = Some(d0);
            } else {
                fast = false;
            }
        }
    }

    if fast {
        let dims = out_dims.expect("set above").to_vec();
        let n: usize = dims.iter().product::<usize>().max(1);
        let n_regs = spec.n_inputs + spec.steps.len();
        let mut regs = vec![0f32; n_regs];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            for (k, s) in slices.iter().enumerate() {
                regs[k] = if s.len() == 1 { s[0] } else { s[i] };
            }
            for (k, step) in spec.steps.iter().enumerate() {
                regs[spec.n_inputs + k] = step.op.apply(regs[step.a], regs[step.b]);
            }
            out.push(regs[n_regs - 1]);
        }
        return Tensor::from_vec_f32(out, &dims).map_err(|e| e.to_string());
    }

    // Fallback: evaluate step by step with broadcasting tensor ops.
    let e = |s: dcf_tensor::TensorError| s.to_string();
    let mut regs: Vec<Tensor> = inputs.iter().map(|t| (*t).clone()).collect();
    for step in &spec.steps {
        use dcf_graph::FusedOp;
        let a = &regs[step.a];
        let r = match step.op {
            FusedOp::Add => a.add(&regs[step.b]).map_err(e)?,
            FusedOp::Sub => a.sub(&regs[step.b]).map_err(e)?,
            FusedOp::Mul => a.mul(&regs[step.b]).map_err(e)?,
            FusedOp::Div => a.div(&regs[step.b]).map_err(e)?,
            FusedOp::Maximum => a.maximum(&regs[step.b]).map_err(e)?,
            FusedOp::Minimum => a.minimum(&regs[step.b]).map_err(e)?,
            FusedOp::Neg => a.neg().map_err(e)?,
            FusedOp::Exp => a.exp().map_err(e)?,
            FusedOp::Log => a.log().map_err(e)?,
            FusedOp::Sqrt => a.sqrt().map_err(e)?,
            FusedOp::Square => a.square().map_err(e)?,
            FusedOp::Abs => a.abs().map_err(e)?,
            FusedOp::Sigmoid => a.sigmoid().map_err(e)?,
            FusedOp::Tanh => a.tanh().map_err(e)?,
            FusedOp::Relu => a.relu().map_err(e)?,
        };
        regs.push(r);
    }
    Ok(regs.pop().expect("steps is non-empty"))
}

/// The arithmetic shape of one operation application, on its real
/// (unscaled) operands: what both the modeled device cost and the host's
/// own cost are functions of.
enum Work<'a> {
    /// `[m, k] x [k, n]`.
    MatMul { m: usize, k: usize, n: usize },
    /// One pass over the largest of `arity` operands.
    Elementwise { largest: Option<&'a Shape>, arity: usize },
    /// One pass over the input.
    Reduction(&'a Shape),
    /// Control flow, bookkeeping, resource plumbing.
    Free,
}

fn op_work<'a>(op: &OpKind, inputs: &[&'a Tensor]) -> Work<'a> {
    match op {
        OpKind::MatMul { transpose_a, transpose_b } => {
            let (ar, ac) = (inputs[0].shape().dim(0), inputs[0].shape().dim(1));
            let (br, bc) = (inputs[1].shape().dim(0), inputs[1].shape().dim(1));
            let (m, k) = if *transpose_a { (ac, ar) } else { (ar, ac) };
            let n = if *transpose_b { br } else { bc };
            Work::MatMul { m, k, n }
        }
        OpKind::Add
        | OpKind::AddN
        | OpKind::Sub
        | OpKind::Mul
        | OpKind::Div
        | OpKind::Maximum
        | OpKind::Minimum
        | OpKind::Neg
        | OpKind::Exp
        | OpKind::Log
        | OpKind::Sqrt
        | OpKind::Square
        | OpKind::Abs
        | OpKind::Sigmoid
        | OpKind::Tanh
        | OpKind::Relu
        | OpKind::Softmax
        | OpKind::Select
        | OpKind::Transpose
        | OpKind::Concat0
        | OpKind::Concat1
        | OpKind::Pack
        | OpKind::Gather0
        | OpKind::ScatterAdd0 { .. }
        | OpKind::OneHot { .. }
        | OpKind::BroadcastTo { .. }
        | OpKind::BroadcastLike
        | OpKind::Concat0Grad { .. }
        | OpKind::Concat1Grad { .. }
        | OpKind::Index0Grad
        | OpKind::Fused(_) => Work::Elementwise {
            // Use the largest operand as the traffic estimate.
            largest: inputs.iter().max_by_key(|t| t.num_elements()).map(|t| t.shape()),
            arity: inputs.len(),
        },
        OpKind::ReduceSumAll
        | OpKind::ReduceMeanAll
        | OpKind::ReduceMaxAll
        | OpKind::ReduceSumAxis { .. }
        | OpKind::ReduceMeanAxis { .. }
        | OpKind::ReduceMaxAxis { .. }
        | OpKind::ArgMax
        | OpKind::ReduceToLike => Work::Reduction(inputs[0].shape()),
        _ => Work::Free,
    }
}

/// Estimates the device cost of one operation application.
///
/// Only arithmetic ops carry modeled cost; control-flow primitives,
/// bookkeeping, and resource plumbing are free (their real CPU time *is*
/// their cost, which is what §6.1 measures as control-flow overhead).
pub fn op_cost(op: &OpKind, inputs: &[&Tensor], cm: &CostModel) -> OpCost {
    match op_work(op, inputs) {
        Work::MatMul { m, k, n } => cm.matmul_cost(m, k, n),
        Work::Elementwise { largest, arity } => {
            cm.elementwise_cost(largest.unwrap_or(&Shape::default()), arity)
        }
        Work::Reduction(shape) => cm.reduction_cost(shape),
        Work::Free => OpCost::FREE,
    }
}

/// Host time of a synchronous kernel from which the executor spills its
/// ready queue to the pool before running it: one cross-vCPU wake-up
/// (`host.pingpong_us_p50`, 40 µs on the benchmark box). Below it, handing
/// the queued work to another thread costs more than the kernel delays it;
/// above it, two independent kernels are worth running side by side. This
/// is TensorFlow's expensive/inexpensive kernel split, decided per
/// application from operand sizes instead of per kernel type.
const EXPENSIVE_HOST_NS: f64 = 40_000.0;

/// `true` when running `op` on `inputs` on the calling thread is estimated
/// to take at least [`EXPENSIVE_HOST_NS`]. Sizes are the real ones — the
/// host computes on unscaled tensors whatever the device models. The
/// per-unit times are this crate's reference kernels measured on the
/// benchmark box (EXPERIMENTS.md, "Per-thread ready queues"): matmul runs
/// 8 flop/ns from 48³ up, an elementwise pass costs 7 ns (`add`) to 21 ns
/// (`tanh`) an element, a reduction under 1 ns.
pub(crate) fn is_expensive_on_host(op: &OpKind, inputs: &[&Tensor]) -> bool {
    let elements = |shape: &Shape| shape.num_elements() as f64;
    let ns = match op_work(op, inputs) {
        Work::MatMul { m, k, n } => 0.25 * (m * k * n) as f64,
        Work::Elementwise { largest, .. } => 10.0 * largest.map(elements).unwrap_or(1.0),
        Work::Reduction(shape) => elements(shape),
        Work::Free => 0.0,
    };
    ns >= EXPENSIVE_HOST_NS
}

/// Returns `true` if `op` should run on the device's compute clock (has
/// modeled cost) when placed on an accelerator: everything but control
/// flow, bookkeeping, resource and communication ops.
pub(crate) fn is_compute_op(op: &OpKind) -> bool {
    use OpKind::*;
    !matches!(
        op,
        // Control flow.
        Switch
            | Merge
            | Enter { .. }
            | Exit
            | NextIteration
            | LoopCond
            | Call { .. }
            | FunctionParam { .. }
            | FunctionRet { .. }
            // Bookkeeping.
            | Const(_)
            | Placeholder { .. }
            | Identity
            | NoOp
            | ControlTrigger
            | ZerosLike
            | OnesLike
            | Reshape { .. }
            | Cast { .. }
            // Resources.
            | Variable { .. }
            | Assign { .. }
            | AssignAdd { .. }
            | AssignSub { .. }
            | StackCreate { .. }
            | StackPush
            | StackPop
            | TensorArrayNew { .. }
            | TensorArrayWrite
            | TensorArrayRead
            | TensorArrayPack
            | TensorArrayUnpack
            | TensorArraySize
            | TensorArrayGrad { .. }
            | StreamStateRead { .. }
            | StreamStateWrite { .. }
            | RandomUniform { .. }
            // Communication.
            | Send { .. }
            | Recv { .. }
    )
}

/// Returns `true` if `dtype` values of this op's output should be charged to
/// device memory (differentiable payloads; booleans and indices are noise).
pub(crate) fn should_charge(dtype: DType, bytes: usize) -> bool {
    dtype == DType::F32 && bytes >= 64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcf_device::DeviceProfile;

    #[test]
    fn pure_ops_execute() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = execute_op(&OpKind::Add, &[&a, &b]).unwrap();
        assert_eq!(out[0].as_f32_slice().unwrap(), &[4.0, 6.0]);
        let out = execute_op(&OpKind::Select, &[&Tensor::scalar_bool(false), &a, &b]).unwrap();
        assert!(out[0].value_eq(&b));
        let out = execute_op(&OpKind::AddN, &[&a, &b, &a]).unwrap();
        assert_eq!(out[0].as_f32_slice().unwrap(), &[5.0, 8.0]);
    }

    #[test]
    fn split_yields_multiple_outputs() {
        let x = Tensor::from_vec_f32(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let out = execute_op(&OpKind::Split1 { n: 2 }, &[&x]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].as_f32_slice().unwrap(), &[1.0, 3.0]);
    }

    #[test]
    fn kernel_errors_are_strings() {
        let a = Tensor::scalar_f32(1.0);
        let b = Tensor::scalar_i64(1);
        assert!(execute_op(&OpKind::Add, &[&a, &b]).is_err());
        assert!(execute_op(&OpKind::Merge, &[&a]).is_err());
    }

    #[test]
    fn matmul_cost_dominates_elementwise() {
        let cm = CostModel::new(DeviceProfile::gpu_k40());
        let a = Tensor::ones(&[64, 64]);
        let mm =
            op_cost(&OpKind::MatMul { transpose_a: false, transpose_b: false }, &[&a, &a], &cm);
        let add = op_cost(&OpKind::Add, &[&a, &a], &cm);
        assert!(mm.flops > add.flops * 10.0);
        let free = op_cost(&OpKind::Switch, &[&a, &a], &cm);
        assert_eq!(free, OpCost::FREE);
    }

    #[test]
    fn transposed_matmul_cost_matches() {
        let cm = CostModel::new(DeviceProfile::gpu_k40());
        let a = Tensor::ones(&[8, 64]);
        let b = Tensor::ones(&[8, 32]);
        // a^T (64x8) x b (8x32): m=64, k=8, n=32.
        let c = op_cost(&OpKind::MatMul { transpose_a: true, transpose_b: false }, &[&a, &b], &cm);
        assert_eq!(c, cm.matmul_cost(64, 8, 32));
    }

    #[test]
    fn charge_policy() {
        assert!(should_charge(DType::F32, 1024));
        assert!(!should_charge(DType::F32, 8));
        assert!(!should_charge(DType::I64, 1024));
        assert!(!should_charge(DType::Bool, 1024));
    }
}
