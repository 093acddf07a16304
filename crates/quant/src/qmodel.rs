//! Quantized Mamba2 execution: a true-integer W4A4 path over packed
//! weights, with the fake-quantized path kept as the reference oracle.
//!
//! Two execution modes share one set of weights:
//!
//! * [`ExecMode::Integer`] — the serving hot path. Linear layers hold
//!   packed 4-bit weights ([`crate::kernels::PackedW4`], two nibbles per
//!   byte, per-group scales); each step quantizes the activations to i8
//!   codes in reusable scratch and runs **one integer GEMM per linear
//!   layer over the whole sub-batch** ([`crate::kernels::gemm_packed`]:
//!   integer accumulate, one f32 rescale per group). This is the
//!   arithmetic and the dataflow of the paper's MMU: every weight is
//!   streamed once per step and shared by all resident sequences.
//! * [`ExecMode::FakeQuant`] — the auditable reference: weights are
//!   dequantized to f32 **on the same quantization grid as the packed
//!   codes** and every step computes in f32 with activations passed
//!   through quantize→dequantize. Agreement between the two modes is
//!   pinned by proptests (bit-exact under power-of-two scales,
//!   tight-tolerance otherwise — see [`crate::kernels`]).
//!
//! The integer mode engages automatically when the precision is
//! packable (per-group weights ≤ 4 bits and per-group activations with
//! the same group size — the paper's W4A4 recipe); other precisions
//! (W8A8's per-channel/per-token, FP) run fake-quantized as before.
//!
//! Weights are **immutable and shared**: one `Arc` holds every tensor,
//! so cloning the model (e.g. registering the same checkpoint in several
//! serving registries) duplicates no weight memory, and construction
//! *moves* the prepared tensors instead of cloning them.
//!
//! A step runs each block as phases over the sub-batch — norm +
//! activation quantization for every sequence → in_proj GEMM → conv /
//! SiLU / SSM / gated norm / Hadamard / activation quantization per
//! sequence → out_proj GEMM + residual — and the LM head as one more
//! GEMM. Per sequence the arithmetic is that of a batch of one, so
//! logits and states are bit-identical at every batch size.
//!
//! The SSM stays on the fake-quant path in both modes (the paper
//! executes it on the SSMU's INT8 PoT datapath, not the MMU), so
//! `LightMamba*`'s `ssm` scheme behaves identically in either mode.

use std::sync::Arc;

use lightmamba_model::batch::{self, DecodeKernels, Workspace};
use lightmamba_model::eval::StepModel;
use lightmamba_model::ssm::{ssm_step_into, SsmDims};
use lightmamba_model::weights::InProjSplit;
use lightmamba_model::{BlockScratch, LayerBatch, LayerState, MambaConfig, ModelError, ModelState};
use lightmamba_tensor::{activation, norm, Tensor};

use crate::kernels::{gemm_packed, gemm_packed_into, ActQuant, GemvScratch, PackedW4};
use crate::prepared::{PreparedBlock, PreparedModel};
use crate::quantizer::{fake_quant_slice, Granularity, QuantScheme, QuantizedTensor};
use crate::Result;

/// Precision configuration for quantized execution.
///
/// Each field is optional: `None` keeps that tensor class in floating
/// point. [`Precision::fp`] (all `None`) executes the prepared model
/// exactly, which is how the rotation-invariance tests verify that the
/// weight rewrites preserve the FP function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Precision {
    /// Weight quantization scheme (`None` = FP weights).
    pub weight: Option<QuantScheme>,
    /// Activation quantization scheme applied at linear inputs
    /// (`None` = FP activations).
    pub act: Option<QuantScheme>,
    /// SSM quantization scheme (`None` leaves the SSM in FP, as the
    /// baselines do; `Some` is the paper's `LightMamba*`).
    pub ssm: Option<QuantScheme>,
}

impl Precision {
    /// Full floating-point execution (exact prepared-model semantics).
    pub fn fp() -> Self {
        Precision::default()
    }

    /// The paper's W8A8 recipe: per-channel weights, per-token activations.
    pub fn w8a8() -> Self {
        Precision {
            weight: Some(QuantScheme::weight_per_channel(8)),
            act: Some(QuantScheme::act_per_token(8)),
            ssm: None,
        }
    }

    /// The paper's W4A4 recipe: per-group weights and activations.
    pub fn w4a4(group: usize) -> Self {
        Precision {
            weight: Some(QuantScheme::weight_per_group(4, group)),
            act: Some(QuantScheme::act_per_group(4, group)),
            ssm: None,
        }
    }

    /// Adds the PoT INT8 SSM quantization (`LightMamba*`).
    pub fn with_ssm_pot(mut self, group: usize) -> Self {
        self.ssm = Some(QuantScheme::ssm_pot(group));
        self
    }

    /// Mean weight bits per parameter implied by this precision (16 when
    /// weights stay FP) — used by the bandwidth model.
    pub fn weight_bits(&self) -> f64 {
        self.weight.map_or(16.0, |s| s.bits as f64)
    }

    /// Whether this precision supports the packed-integer execution
    /// path: per-group weights of ≤ 4 bits and per-group activations
    /// with the same group size (the W4A4 recipe shape).
    pub fn is_packable(&self) -> bool {
        match (self.weight, self.act) {
            (Some(w), Some(a)) => match (w.granularity, a.granularity) {
                (Granularity::PerGroup(gw), Granularity::PerGroup(ga)) => w.bits <= 4 && gw == ga,
                _ => false,
            },
            _ => false,
        }
    }
}

/// How [`QuantizedMamba`] executes its linear layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Integer GEMV over packed 4-bit weights (the serving hot path).
    Integer,
    /// f32 compute on dequantized weights (the reference oracle).
    FakeQuant,
}

/// One quantized block: dequantized oracle weights, optional packed
/// integer weights, and the method's conditioning vectors.
#[derive(Debug)]
struct QBlock {
    norm_gamma: Vec<f32>,
    /// Dequantized f32 weight on the same grid as `w_in_packed` —
    /// the fake-quant oracle computes with this.
    w_in: Tensor,
    w_in_packed: Option<PackedW4>,
    w_in_bias: Option<Vec<f32>>,
    in_act_scale: Option<Vec<f32>>,
    in_act_shift: Option<Vec<f32>>,
    conv_weight: Tensor,
    conv_bias: Vec<f32>,
    a_log: Vec<f32>,
    dt_bias: Vec<f32>,
    d_skip: Vec<f32>,
    gate_norm_gamma: Vec<f32>,
    online_hadamard: Option<lightmamba_hadamard::FactoredHadamard>,
    out_act_scale: Option<Vec<f32>>,
    out_act_shift: Option<Vec<f32>>,
    w_out: Tensor,
    w_out_packed: Option<PackedW4>,
    w_out_bias: Option<Vec<f32>>,
}

/// The immutable weight set of a quantized model, shared via `Arc` so
/// clones (and multi-registry serving setups) duplicate no weight
/// memory.
#[derive(Debug)]
struct SharedWeights {
    embedding: Tensor,
    lm_head: Tensor,
    lm_head_packed: Option<PackedW4>,
    final_norm_gamma: Vec<f32>,
    blocks: Vec<QBlock>,
}

/// Kernel scratch of the quantized decode step, one per lane: per
/// resident sequence the shared FP block buffers
/// ([`lightmamba_model::BlockScratch`] — one `prepare` keeps the shapes
/// in sync with the FP path) and its activation codes, plus the GEMM's
/// own scratch. The LM head reuses the codes and the GEMM scratch once
/// the last block is done with them. Grows to the largest lane seen;
/// every temporary of a step lives here, so steady-state decode
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    blocks: Vec<BlockScratch>,
    acts: Vec<ActQuant>,
    gemm: GemvScratch,
}

impl QuantScratch {
    /// Sizes the per-sequence scratch for a lane of `n`.
    fn prepare(&mut self, n: usize, cfg: &MambaConfig) {
        if self.blocks.len() < n {
            self.blocks.resize_with(n, BlockScratch::default);
            self.acts.resize_with(n, ActQuant::new);
        }
        for block in &mut self.blocks[..n] {
            block.prepare(cfg);
        }
    }
}

/// The quantized model's decode workspace: the driver's
/// [`Workspace`] over [`QuantScratch`], for any batch size, pooled or
/// not.
pub type QuantWorkspace = Workspace<QuantScratch>;

/// A quantized Mamba2 model implementing [`StepModel`].
///
/// Cloning is cheap: weights are held in a shared [`Arc`], so clones
/// share weight memory and differ only in their private decode state and
/// execution mode.
#[derive(Debug, Clone)]
pub struct QuantizedMamba {
    cfg: MambaConfig,
    split: InProjSplit,
    dims: SsmDims,
    precision: Precision,
    exec: ExecMode,
    weights: Arc<SharedWeights>,
    state: ModelState,
    /// Total weight storage in bits after quantization (drives the DMA
    /// traffic model in `lightmamba-accel`). For the packed path this is
    /// the bits of the representation actually held: packed nibble bytes
    /// plus FP16 scales.
    weight_storage_bits: usize,
    /// Parameters passing through weight quantization (the denominator
    /// of [`QuantizedMamba::mean_weight_bits`]).
    weight_params: usize,
}

impl QuantizedMamba {
    /// Quantizes a prepared model's weights under `precision`.
    ///
    /// Parameter tensors are **moved** out of `prepared`, not cloned;
    /// everything immutable lands behind one shared `Arc`. When the
    /// precision is packable ([`Precision::is_packable`]) the linear
    /// weights are additionally packed for integer execution and the
    /// dequantized oracle tensors are rebuilt from the packed grid, so
    /// the two modes quantize identically.
    ///
    /// # Errors
    ///
    /// Propagates scheme validation and shape errors.
    pub fn new(prepared: PreparedModel, precision: Precision) -> Result<Self> {
        if let Some(s) = precision.weight {
            s.validate()?;
        }
        if let Some(s) = precision.act {
            s.validate()?;
        }
        if let Some(s) = precision.ssm {
            s.validate()?;
        }
        let packable = precision.is_packable();
        let mut storage_bits = 0usize;
        let mut weight_params = 0usize;
        // Quantizes one linear weight, moving it when it stays FP.
        // Returns the dequantized oracle tensor plus the packed form.
        let mut quant_weight = |t: Tensor| -> Result<(Tensor, Option<PackedW4>)> {
            weight_params += t.len();
            match precision.weight {
                Some(scheme) if packable => {
                    let packed = PackedW4::quantize(&t, scheme)?;
                    storage_bits += packed.storage_bits();
                    Ok((packed.dequantized_weight(), Some(packed)))
                }
                Some(scheme) => {
                    let q = QuantizedTensor::quantize(&t, scheme)?;
                    storage_bits += q.storage_bits();
                    Ok((q.dequantize(), None))
                }
                None => {
                    storage_bits += t.len() * 16;
                    Ok((t, None))
                }
            }
        };

        let PreparedModel {
            cfg,
            embedding,
            lm_head,
            final_norm_gamma,
            blocks: prepared_blocks,
        } = prepared;

        let mut blocks = Vec::with_capacity(prepared_blocks.len());
        for b in prepared_blocks {
            let PreparedBlock {
                norm_gamma,
                w_in,
                w_in_bias,
                in_act_scale,
                in_act_shift,
                conv_weight,
                conv_bias,
                a_log,
                dt_bias,
                d_skip,
                gate_norm_gamma,
                online_hadamard,
                out_act_scale,
                out_act_shift,
                w_out,
                w_out_bias,
            } = b;
            let (w_in, w_in_packed) = quant_weight(w_in)?;
            let (w_out, w_out_packed) = quant_weight(w_out)?;
            blocks.push(QBlock {
                norm_gamma,
                w_in,
                w_in_packed,
                w_in_bias,
                in_act_scale,
                in_act_shift,
                conv_weight,
                conv_bias,
                a_log,
                dt_bias,
                d_skip,
                gate_norm_gamma,
                online_hadamard,
                out_act_scale,
                out_act_shift,
                w_out,
                w_out_packed,
                w_out_bias,
            });
        }
        let (lm_head, lm_head_packed) = quant_weight(lm_head)?;
        let state = ModelState::new(&cfg);
        Ok(QuantizedMamba {
            split: InProjSplit::new(&cfg),
            dims: SsmDims::new(&cfg),
            precision,
            exec: if packable {
                ExecMode::Integer
            } else {
                ExecMode::FakeQuant
            },
            weights: Arc::new(SharedWeights {
                embedding,
                lm_head,
                lm_head_packed,
                final_norm_gamma,
                blocks,
            }),
            cfg,
            state,
            weight_storage_bits: storage_bits,
            weight_params,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    /// The precision this model runs at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The execution mode of the linear layers.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec
    }

    /// Selects the execution mode. [`ExecMode::FakeQuant`] is always
    /// available (it is the reference oracle); [`ExecMode::Integer`]
    /// requires a packable precision.
    ///
    /// # Errors
    ///
    /// Returns [`crate::QuantError::InvalidScheme`] when integer
    /// execution is requested for an unpackable precision.
    pub fn with_exec_mode(mut self, mode: ExecMode) -> Result<Self> {
        if mode == ExecMode::Integer && self.weights.lm_head_packed.is_none() {
            return Err(crate::QuantError::InvalidScheme(format!(
                "precision {:?} has no packed integer path (needs per-group \
                 weights ≤ 4 bits and per-group activations with the same group)",
                self.precision
            )));
        }
        self.exec = mode;
        Ok(self)
    }

    /// Whether two models share one weight `Arc` (no duplicated weight
    /// memory) — true for clones of the same construction.
    pub fn shares_weights_with(&self, other: &QuantizedMamba) -> bool {
        Arc::ptr_eq(&self.weights, &other.weights)
    }

    /// Quantized weight storage in bits (codes + scales; for the packed
    /// path, the packed nibble bytes actually held).
    pub fn weight_storage_bits(&self) -> usize {
        self.weight_storage_bits
    }

    /// Mean *stored* bits per quantized weight parameter, scales
    /// included — e.g. ~5.0 for 4-bit group-16, ~4.125 for the paper's
    /// group-128 recipe, 16.0 for FP weights. This is the honest
    /// weight-stream width per parameter for bandwidth models, derived
    /// from the packed representation when one exists.
    pub fn mean_weight_bits(&self) -> f64 {
        if self.weight_params == 0 {
            16.0
        } else {
            self.weight_storage_bits as f64 / self.weight_params as f64
        }
    }

    /// Fresh zeroed decode state shaped for this model — the external
    /// counterpart of the private [`StepModel`] state, used by the
    /// serving slot pool.
    pub fn new_state(&self) -> ModelState {
        ModelState::new(&self.cfg)
    }

    /// Whether the integer path executes this step's linear layers.
    fn integer(&self) -> bool {
        self.exec == ExecMode::Integer
    }

    /// Quantizes a projection's input for the active execution mode:
    /// integer codes into `act` on the hot path, quantize→dequantize in
    /// place on the oracle path.
    fn quantize_act(&self, v: &mut [f32], act: &mut ActQuant) -> Result<()> {
        match (self.precision.act, self.integer()) {
            (Some(scheme), true) => act.quantize(v, scheme),
            (Some(scheme), false) => fake_quant_slice(v, scheme),
            (None, _) => Ok(()),
        }
    }

    /// One sequence, up to the input projection: pre-norm of the
    /// residual stream `x` into `s.normed`, the method's activation
    /// conditioning, activation quantization.
    fn pre_in_proj(
        &self,
        block: &QBlock,
        x: &[f32],
        s: &mut BlockScratch,
        act: &mut ActQuant,
    ) -> Result<()> {
        s.normed.copy_from_slice(x);
        norm::rms_norm(&mut s.normed, &block.norm_gamma, 1e-5);
        if let Some(shift) = &block.in_act_shift {
            for (v, s) in s.normed.iter_mut().zip(shift.iter()) {
                *v -= s;
            }
        }
        if let Some(scale) = &block.in_act_scale {
            for (v, s) in s.normed.iter_mut().zip(scale.iter()) {
                *v /= s;
            }
        }
        self.quantize_act(&mut s.normed, act)
    }

    /// One sequence, between the projections: from `scratch.proj` (the
    /// input projection's output) through conv, SiLU, the SSM
    /// recurrence on `lstate`, gated norm, online rotation and the
    /// method's conditioning to the quantized out_proj input in
    /// `scratch.y` / `act`.
    fn mix(
        &self,
        block: &QBlock,
        scratch: &mut BlockScratch,
        lstate: &mut LayerState,
        act: &mut ActQuant,
    ) -> Result<()> {
        let ssm_scheme = self.precision.ssm;
        let di = self.cfg.d_inner();
        let g = self.cfg.ngroups * self.cfg.d_state;
        if let Some(bias) = &block.w_in_bias {
            for (p, b) in scratch.proj.iter_mut().zip(bias.iter()) {
                *p += b;
            }
        }
        let s = &self.split;

        // Causal conv over (x, B, C), then SiLU on the conv output.
        scratch.conv_in[0..di].copy_from_slice(&scratch.proj[s.x.0..s.x.1]);
        scratch.conv_in[di..di + g].copy_from_slice(&scratch.proj[s.b.0..s.b.1]);
        scratch.conv_in[di + g..di + 2 * g].copy_from_slice(&scratch.proj[s.c.0..s.c.1]);
        lstate.conv.step_into(
            &scratch.conv_in,
            &block.conv_weight,
            &block.conv_bias,
            &mut scratch.conv_out,
        )?;
        activation::silu_slice(&mut scratch.conv_out);

        // SSM quantization (LightMamba*): quantize the element-wise
        // chain's operands and re-quantize state and output, modelling
        // the INT8 per-group PoT dataflow of the SSMU (identical in both
        // execution modes — the SSM never runs on the MMU).
        if let Some(sq) = ssm_scheme {
            fake_quant_slice(&mut scratch.conv_out[0..di], sq)?;
            fake_quant_slice(&mut scratch.conv_out[di..di + g], sq)?;
            fake_quant_slice(&mut scratch.conv_out[di + g..di + 2 * g], sq)?;
        }
        ssm_step_into(
            self.dims,
            &scratch.conv_out[0..di],
            &scratch.conv_out[di..di + g],
            &scratch.conv_out[di + g..di + 2 * g],
            &scratch.proj[s.dt.0..s.dt.1],
            &block.a_log,
            &block.dt_bias,
            &block.d_skip,
            &mut lstate.h,
            &mut scratch.y,
        )?;
        if let Some(sq) = ssm_scheme {
            fake_quant_slice(&mut lstate.h, sq)?;
            fake_quant_slice(&mut scratch.y, sq)?;
        }

        // Gated norm (scale kept unfused per Fig. 4b), online rotation,
        // method-specific conditioning, activation quantization.
        norm::gated_rms_norm(
            &mut scratch.y,
            &scratch.proj[s.z.0..s.z.1],
            &block.gate_norm_gamma,
            1e-5,
        );
        if let Some(h) = &block.online_hadamard {
            h.apply(&mut scratch.y);
        }
        if let Some(shift) = &block.out_act_shift {
            for (v, s) in scratch.y.iter_mut().zip(shift.iter()) {
                *v -= s;
            }
        }
        if let Some(scale) = &block.out_act_scale {
            for (v, s) in scratch.y.iter_mut().zip(scale.iter()) {
                *v /= s;
            }
        }
        self.quantize_act(&mut scratch.y, act)
    }

    /// One decode step against an external state (the serving path; the
    /// internal [`StepModel`] state is untouched).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::TokenOutOfRange`] / [`ModelError::StateMismatch`]
    /// wrapped in [`crate::QuantError`] for invalid inputs.
    pub fn forward_step_with(&self, token: u32, state: &mut ModelState) -> Result<Vec<f32>> {
        let mut ws = QuantWorkspace::new();
        self.forward_step_batch_indexed_with(&[(0, token)], std::slice::from_mut(state), &mut ws)?;
        let logits = ws.into_logits().pop();
        Ok(logits.expect("one item yields one logits vector"))
    }

    /// [`batch::step`] over this model on the caller's thread, logits
    /// for every item (in `ws.logits()`, index-aligned with `items`).
    /// Layer-outer with each linear layer one GEMM over the batch, so
    /// each block's weights are streamed once per step; per-sequence
    /// arithmetic is bit-identical to sequential decode.
    ///
    /// # Errors
    ///
    /// Same conditions as [`batch::step`].
    pub fn forward_step_batch_indexed_with(
        &self,
        items: &[(usize, u32)],
        states: &mut [ModelState],
        ws: &mut QuantWorkspace,
    ) -> Result<()> {
        batch::step(self, items, None, states, None, ws)
    }

    fn step_inner(&mut self, token: u32) -> Result<Vec<f32>> {
        // Swap the private state out so the shared stateless core can
        // borrow `self` immutably (no per-step allocation: the
        // placeholder is an empty layer list).
        let mut state = std::mem::replace(&mut self.state, ModelState { layers: Vec::new() });
        let out = self.forward_step_with(token, &mut state);
        self.state = state;
        out
    }
}

impl DecodeKernels for QuantizedMamba {
    type Scratch = QuantScratch;
    type Error = crate::QuantError;

    fn config(&self) -> &MambaConfig {
        &self.cfg
    }

    fn embed(&self, token: u32, x: &mut Vec<f32>) -> Result<()> {
        x.clear();
        x.extend_from_slice(self.weights.embedding.row(token as usize)?);
        Ok(())
    }

    /// Advances every sequence of a lane through one block, as phases:
    /// per sequence whatever touches only that sequence, and one GEMM
    /// across the lane for each projection. A lane of one runs the same
    /// code, so per-sequence arithmetic — and therefore every logit and
    /// state bit — does not depend on the batch.
    fn layer_step(
        &self,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let block = &self.weights.blocks[layer];
        let n = xs.len();
        scratch.prepare(n, &self.cfg);
        let QuantScratch { blocks, acts, gemm } = scratch;
        let (blocks, acts) = (&mut blocks[..n], &mut acts[..n]);

        for ((x, s), act) in xs.iter().zip(blocks.iter_mut()).zip(acts.iter_mut()) {
            self.pre_in_proj(block, x, s, act)?;
        }
        match (&block.w_in_packed, self.integer()) {
            (Some(packed), true) => gemm_packed_into(packed, acts, gemm, blocks, |s| &mut s.proj)?,
            _ => {
                for s in blocks.iter_mut() {
                    block.w_in.vecmat_into(&s.normed, &mut s.proj)?;
                }
            }
        }
        for (k, (s, act)) in blocks.iter_mut().zip(acts.iter_mut()).enumerate() {
            self.mix(block, s, lstates.state_mut(k), act)?;
        }
        match (&block.w_out_packed, self.integer()) {
            (Some(packed), true) => gemm_packed_into(packed, acts, gemm, blocks, |s| &mut s.out)?,
            _ => {
                for s in blocks.iter_mut() {
                    block.w_out.vecmat_into(&s.y, &mut s.out)?;
                }
            }
        }
        for (x, s) in xs.iter_mut().zip(blocks.iter_mut()) {
            if let Some(bias) = &block.w_out_bias {
                for (o, b) in s.out.iter_mut().zip(bias.iter()) {
                    *o += b;
                }
            }
            for (xi, oi) in x.iter_mut().zip(s.out.iter()) {
                *xi += oi;
            }
        }
        Ok(())
    }

    /// Final norm + optional activation quantization + LM head for the
    /// residual streams whose logits are wanted, one GEMM for all of
    /// them, writing into reusable logits buffers.
    fn finish(
        &self,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let QuantScratch { acts, gemm, .. } = scratch;
        if acts.len() < xs.len() {
            acts.resize_with(xs.len(), ActQuant::new);
        }
        let acts = &mut acts[..xs.len()];
        for (x, act) in xs.iter_mut().zip(acts.iter_mut()) {
            norm::rms_norm(x, &self.weights.final_norm_gamma, 1e-5);
            self.quantize_act(x, act)?;
        }
        match (&self.weights.lm_head_packed, self.integer()) {
            (Some(packed), true) => gemm_packed(packed, acts, gemm, logits)?,
            _ => {
                for (x, logits) in xs.iter().zip(logits.iter_mut()) {
                    logits.resize(self.cfg.vocab_size, 0.0);
                    self.weights.lm_head.vecmat_into(x, logits)?;
                }
            }
        }
        Ok(())
    }
}

impl StepModel for QuantizedMamba {
    fn reset(&mut self) {
        self.state.reset();
    }

    fn step(&mut self, token: u32) -> lightmamba_model::Result<Vec<f32>> {
        self.step_inner(token).map_err(|e| match e {
            crate::QuantError::Model(m) => m,
            crate::QuantError::Tensor(t) => ModelError::Tensor(t),
            other => ModelError::InvalidConfig(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantError;
    use lightmamba_model::eval::{compare_models, ReferenceRunner};
    use lightmamba_model::{corpus::SyntheticCorpus, MambaModel};
    use lightmamba_pool::WorkerPool;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reference() -> MambaModel {
        MambaModel::synthetic(MambaConfig::tiny(), &mut StdRng::seed_from_u64(11)).unwrap()
    }

    fn precision(wbits: u8, abits: u8) -> Precision {
        Precision {
            weight: Some(QuantScheme::weight_per_channel(wbits)),
            act: Some(QuantScheme::act_per_token(abits)),
            ssm: None,
        }
    }

    fn sequences() -> Vec<Vec<u32>> {
        SyntheticCorpus::for_vocab(256).calibration_set(&mut StdRng::seed_from_u64(5), 2, 10)
    }

    #[test]
    fn w8a8_is_near_lossless() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut q, &sequences()).unwrap();
        assert!(rep.mean_kl < 0.1, "W8A8 KL too high: {}", rep.mean_kl);
        assert!(rep.agreement > 0.8, "W8A8 agreement {}", rep.agreement);
    }

    #[test]
    fn lower_precision_is_worse() {
        let model = reference();
        let seqs = sequences();
        let kl_at = |wbits, abits| {
            let prepared = PreparedModel::from_reference(&model).unwrap();
            let mut q = QuantizedMamba::new(prepared, precision(wbits, abits)).unwrap();
            let mut r = ReferenceRunner::new(model.clone());
            compare_models(&mut r, &mut q, &seqs).unwrap().mean_kl
        };
        let kl8 = kl_at(8, 8);
        let kl4 = kl_at(4, 4);
        let kl2 = kl_at(2, 2);
        assert!(kl4 > kl8, "kl4 {kl4} vs kl8 {kl8}");
        assert!(kl2 > kl4, "kl2 {kl2} vs kl4 {kl4}");
    }

    #[test]
    fn ssm_quantization_adds_bounded_error() {
        let model = reference();
        let seqs = sequences();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut with_ssm = QuantizedMamba::new(
            prepared.clone(),
            Precision {
                ssm: Some(QuantScheme::ssm_pot(16)),
                ..precision(8, 8)
            },
        )
        .unwrap();
        let mut r = ReferenceRunner::new(model);
        let rep = compare_models(&mut r, &mut with_ssm, &seqs).unwrap();
        // INT8 PoT SSM should stay usable (paper: LightMamba* W8A8 ≈ FP16).
        assert!(rep.mean_kl < 0.5, "SSM-quantized KL {}", rep.mean_kl);
    }

    #[test]
    fn storage_bits_track_precision() {
        let model = reference();
        let p4 = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            Precision::w4a4(16),
        )
        .unwrap();
        let p8 = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            precision(8, 8),
        )
        .unwrap();
        assert!(p4.weight_storage_bits() < p8.weight_storage_bits());
        // Packed group-16: 4-bit codes + one FP16 scale per 16 ≈ 5 b/param.
        let wb = p4.mean_weight_bits();
        assert!((4.9..5.2).contains(&wb), "packed bits/param {wb}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let first = q.step(3).unwrap();
        q.step(4).unwrap();
        q.reset();
        let again = q.step(3).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn rejects_bad_token() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert!(q.step(100_000).is_err());
    }

    #[test]
    fn external_step_leaves_internal_state_untouched() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let mut q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let first = q.step(3).unwrap();
        let mut external = q.new_state();
        q.forward_step_with(7, &mut external).unwrap();
        q.forward_step_with(9, &mut external).unwrap();
        // The private StepModel state must still reflect only `step(3)`.
        q.reset();
        assert_eq!(q.step(3).unwrap(), first);
    }

    #[test]
    fn batched_rejects_duplicate_slot_and_foreign_state() {
        // The rejection table: each row is refused by `advance` and (all
        // rows but the last being one token per item) by `step`, pooled
        // and not, with every state left bit-equal.
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        let bad = q.config().vocab_size as u32;
        let mut other_cfg = MambaConfig::tiny();
        other_cfg.d_state = 32;
        let own = || vec![q.new_state(), q.new_state()];
        let foreign = || vec![q.new_state(), ModelState::new(&other_cfg)];
        type Expected = fn(&QuantError) -> bool;
        let mismatch: Expected = |e| matches!(e, QuantError::Model(ModelError::StateMismatch(_)));
        let out_of_range: Expected =
            |e| matches!(e, QuantError::Model(ModelError::TokenOutOfRange { .. }));
        let reject = |row: &str,
                      mut states: Vec<ModelState>,
                      items: [(usize, &[u32]); 2],
                      expected: Expected| {
            let before = states.clone();
            let single: Option<Vec<(usize, u32)>> = items
                .iter()
                .map(|&(slot, toks)| (toks.len() == 1).then(|| (slot, toks[0])))
                .collect();
            for pool in [None, Some(WorkerPool::new(4))] {
                let (pool, mut ws) = (pool.as_ref(), QuantWorkspace::new());
                let err = batch::advance(&q, &items, &mut states, pool, &mut ws).unwrap_err();
                assert!(expected(&err), "{row}, advance, pool {pool:?}: {err:?}");
                if let Some(single) = &single {
                    let err =
                        batch::step(&q, single, None, &mut states, pool, &mut ws).unwrap_err();
                    assert!(expected(&err), "{row}, step, pool {pool:?}: {err:?}");
                }
                assert_eq!(states, before, "{row}: states must be untouched on error");
            }
        };
        reject("duplicate slot", own(), [(0, &[1]), (0, &[2])], mismatch);
        reject("slot out of range", own(), [(0, &[1]), (2, &[2])], mismatch);
        reject("foreign state", foreign(), [(0, &[1]), (1, &[2])], mismatch);
        reject("bad token", own(), [(0, &[1]), (1, &[bad])], out_of_range);
        // Atomicity of a ragged advance: nothing may advance even though
        // the bad token is the second item's last.
        let late: [(usize, &[u32]); 2] = [(0, &[1, 2, 3]), (1, &[4, 5, bad])];
        reject("late bad token", own(), late, out_of_range);
    }

    #[test]
    fn phase_batched_steps_match_sequential_at_every_batch_size() {
        // Ragged prefill (`advance`), a decode `step`, then a `step`
        // with a ragged `want` — batches of 1..=9 (every K-block
        // remainder), both execution modes, every lane cut (no pool;
        // pools of 1, 3, 4 and 16 threads, so also more threads than
        // items) — against one sequence at a time through
        // `forward_step_with`. Logits and states, bit for bit.
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        let prompts: Vec<Vec<u32>> = (0..9u32)
            .map(|k| {
                (0..1 + (k * 5) % 4)
                    .map(|i| (k * 31 + i * 7) % 256)
                    .collect()
            })
            .collect();
        let next = |k: usize, round: u32| (k as u32 * 13 + 3 + round * 29) % 256;
        let wanted = |k: usize| k % 3 != 1;
        let mut pools = vec![None];
        pools.extend([1, 3, 4, 16].map(|t| Some(WorkerPool::new(t))));
        for q in [&q_int, &q_fake] {
            let mut want_states = Vec::new();
            let mut want_logits = [Vec::new(), Vec::new(), Vec::new()];
            for (k, prompt) in prompts.iter().enumerate() {
                let mut state = q.new_state();
                let mut last = Vec::new();
                for &t in prompt {
                    last = q.forward_step_with(t, &mut state).unwrap();
                }
                want_logits[0].push(last);
                for round in 0..2 {
                    let logits = q.forward_step_with(next(k, round), &mut state).unwrap();
                    want_logits[1 + round as usize].push(logits);
                }
                want_states.push(state);
            }
            for n in 1..=prompts.len() {
                let ragged: Vec<(usize, &[u32])> =
                    prompts[..n].iter().map(|p| &p[..]).enumerate().collect();
                let decode =
                    |round| -> Vec<(usize, u32)> { (0..n).map(|k| (k, next(k, round))).collect() };
                let want: Vec<bool> = (0..n).map(wanted).collect();
                let want_ragged: Vec<&Vec<f32>> = (0..n)
                    .filter(|&k| wanted(k))
                    .map(|k| &want_logits[2][k])
                    .collect();
                for pool in &pools {
                    let pool = pool.as_ref();
                    let label = format!("{:?} batch {n} pool {pool:?}", q.exec_mode());
                    let mut states: Vec<ModelState> = (0..n).map(|_| q.new_state()).collect();
                    let mut ws = QuantWorkspace::new();
                    let prefill = batch::advance(q, &ragged, &mut states, pool, &mut ws).unwrap();
                    assert_eq!(prefill, want_logits[0][..n], "{label}: prefill");
                    batch::step(q, &decode(0), None, &mut states, pool, &mut ws).unwrap();
                    assert_eq!(ws.logits(), &want_logits[1][..n], "{label}: decode");
                    batch::step(q, &decode(1), Some(&want), &mut states, pool, &mut ws).unwrap();
                    let got: Vec<&Vec<f32>> = ws.logits().iter().collect();
                    assert_eq!(got, want_ragged, "{label}: ragged want");
                    assert_eq!(states, want_states[..n], "{label}: states");
                }
            }
        }
    }

    #[test]
    fn integer_and_fake_quant_modes_agree_closely() {
        // The tentpole invariant at model scale: the packed integer path
        // and the fake-quant oracle share one quantization grid and
        // differ only in accumulation rounding, so full-model logits
        // stay within a tight relative tolerance (the kernel-level
        // agreement including the PoT bit-exact case is proptested in
        // tests/kernel_props.rs).
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q_int = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        assert!(q_int.shares_weights_with(&q_fake));
        let mut s_int = q_int.new_state();
        let mut s_fake = q_fake.new_state();
        for &t in &[5u32, 9, 2, 40, 1, 7] {
            let li = q_int.forward_step_with(t, &mut s_int).unwrap();
            let lf = q_fake.forward_step_with(t, &mut s_fake).unwrap();
            let scale = lf.iter().fold(0.0f32, |m, v| m.max(v.abs())).max(1.0);
            for (a, b) in li.iter().zip(lf.iter()) {
                assert!((a - b).abs() <= 1e-4 * scale, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn integer_mode_requires_packable_precision() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        // Per-channel/per-token W8A8 has no packed path.
        let q = QuantizedMamba::new(prepared, precision(8, 8)).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
        assert!(q.with_exec_mode(ExecMode::Integer).is_err());
        // W4A8 with matching groups is packable.
        let prepared = PreparedModel::from_reference(&reference()).unwrap();
        let p = Precision {
            weight: Some(QuantScheme::weight_per_group(4, 16)),
            act: Some(QuantScheme::act_per_group(8, 16)),
            ssm: None,
        };
        assert!(p.is_packable());
        let q = QuantizedMamba::new(prepared, p).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        // Mismatched groups fall back to fake quantization.
        let p = Precision {
            weight: Some(QuantScheme::weight_per_group(4, 16)),
            act: Some(QuantScheme::act_per_group(4, 32)),
            ssm: None,
        };
        assert!(!p.is_packable());
        let prepared = PreparedModel::from_reference(&reference()).unwrap();
        let q = QuantizedMamba::new(prepared, p).unwrap();
        assert_eq!(q.exec_mode(), ExecMode::FakeQuant);
    }

    #[test]
    fn construction_moves_fp_tensors_instead_of_cloning() {
        // With FP weights the prepared tensors must be moved into the
        // shared weight set — same heap buffers, no copy.
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let embedding_ptr = prepared.embedding.data().as_ptr();
        let conv_ptr = prepared.blocks[0].conv_weight.data().as_ptr();
        let w_in_ptr = prepared.blocks[0].w_in.data().as_ptr();
        let q = QuantizedMamba::new(prepared, Precision::fp()).unwrap();
        assert_eq!(q.weights.embedding.data().as_ptr(), embedding_ptr);
        assert_eq!(q.weights.blocks[0].conv_weight.data().as_ptr(), conv_ptr);
        assert_eq!(q.weights.blocks[0].w_in.data().as_ptr(), w_in_ptr);
    }

    #[test]
    fn clones_share_weight_memory() {
        let model = reference();
        let prepared = PreparedModel::from_reference(&model).unwrap();
        let q = QuantizedMamba::new(prepared, Precision::w4a4(16)).unwrap();
        let clone = q.clone();
        assert!(q.shares_weights_with(&clone));
        assert_eq!(Arc::strong_count(&q.weights), 2);
        // A separately constructed model does not share.
        let other = QuantizedMamba::new(
            PreparedModel::from_reference(&model).unwrap(),
            Precision::w4a4(16),
        )
        .unwrap();
        assert!(!q.shares_weights_with(&other));
    }
}
