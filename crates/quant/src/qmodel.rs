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
//!   codes** (on first use) and every step computes in f32 with
//!   activations passed through quantize→dequantize. Agreement between the two modes is
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
//! An advance runs each block as phases over its rows, one row per fed
//! token (so a prefill chunk shares each weight stream across its
//! positions as a batch does) — norm + activation quantization for
//! every row → in_proj GEMM → conv / SiLU / SSM per row, in row order →
//! gate / gated norm / Hadamard / activation quantization for every row
//! → out_proj GEMM + residual — and the LM head as one more GEMM over
//! each item's last row. The norms of a lane's rows run their serial
//! sums side by side ([`norm::rms_norm_rows`]). Per row the arithmetic
//! is that of a batch of one, so logits and states are bit-identical at
//! every batch size and chunk length.
//!
//! The SSM stays on the fake-quant path in both modes (the paper
//! executes it on the SSMU's INT8 PoT datapath, not the MMU), so
//! `LightMamba*`'s `ssm` scheme behaves identically in either mode.

use std::sync::{Arc, OnceLock};

use lightmamba_model::batch::{self, DecodeKernels, Workspace};
use lightmamba_model::eval::StepModel;
use lightmamba_model::ssm::{ssm_step_into_on, state_from_logical, state_to_logical, SsmDims};
use lightmamba_model::weights::InProjSplit;
use lightmamba_model::{BlockScratch, LayerBatch, LayerState, MambaConfig, ModelError, ModelState};
use lightmamba_tensor::conv::tap_major;
use lightmamba_tensor::isa::{detect, Isa};
use lightmamba_tensor::{activation, norm, Tensor};

use crate::kernels::{gemm_packed_on, gemm_rows, ActQuant, GemvScratch, PackedW4};
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
    /// The f32 weight the fake-quant oracle computes with ([`oracle`]):
    /// set at construction when the precision packs nothing, else
    /// dequantized from `w_in_packed`'s grid on first use.
    w_in: OnceLock<Tensor>,
    w_in_packed: Option<PackedW4>,
    w_in_bias: Option<Vec<f32>>,
    in_act_scale: Option<Vec<f32>>,
    in_act_shift: Option<Vec<f32>>,
    /// Conv weights tap-major, `(d_conv, conv_dim)`, re-laid in the
    /// prepared tensor's own buffer.
    conv_weight: Tensor,
    conv_bias: Vec<f32>,
    a_log: Vec<f32>,
    dt_bias: Vec<f32>,
    d_skip: Vec<f32>,
    gate_norm_gamma: Vec<f32>,
    online_hadamard: Option<lightmamba_hadamard::FactoredHadamard>,
    out_act_scale: Option<Vec<f32>>,
    out_act_shift: Option<Vec<f32>>,
    /// As `w_in`, for `w_out_packed`.
    w_out: OnceLock<Tensor>,
    w_out_packed: Option<PackedW4>,
    w_out_bias: Option<Vec<f32>>,
}

/// The immutable weight set of a quantized model, shared via `Arc` so
/// clones (and multi-registry serving setups) duplicate no weight
/// memory.
#[derive(Debug)]
struct SharedWeights {
    embedding: Tensor,
    /// As `QBlock::w_in`, for `lm_head_packed`.
    lm_head: OnceLock<Tensor>,
    lm_head_packed: Option<PackedW4>,
    final_norm_gamma: Vec<f32>,
    blocks: Vec<QBlock>,
}

/// Kernel scratch of the quantized decode driver, one per lane: per row
/// the shared FP block buffers ([`lightmamba_model::BlockScratch`] — one
/// `prepare` keeps the shapes in sync with the FP path) and its
/// activation codes, plus the GEMM's own scratch. The LM head reuses the
/// codes and the GEMM scratch once the last block is done with them.
/// Grows to the largest row count seen; every temporary of an advance
/// lives here, so steady-state decode allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct QuantScratch {
    blocks: Vec<BlockScratch>,
    acts: Vec<ActQuant>,
    gemm: GemvScratch,
    /// One layer's SSM state in the logical `[h][p][n]` order, where
    /// `LightMamba*`'s PoT groups run (grown only when the precision
    /// quantizes the SSM).
    logical_state: Vec<f32>,
}

impl QuantScratch {
    /// Sizes the per-row scratch for a lane of `n` rows.
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
}

impl QuantizedMamba {
    /// Quantizes a prepared model's weights under `precision`.
    ///
    /// Parameter tensors are **moved** out of `prepared`, not cloned;
    /// everything immutable lands behind one shared `Arc`. When the
    /// precision is packable ([`Precision::is_packable`]) the linear
    /// weights are packed for integer execution, and the fake-quant
    /// oracle dequantizes the packed grid the first time it runs, so the
    /// two modes quantize identically and a model that only ever runs
    /// [`ExecMode::Integer`] holds no f32 copy of its linear weights.
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
        // Quantizes one linear weight, moving it when it stays FP.
        // Returns the oracle tensor (left unset for a packed weight,
        // [`oracle`] builds it) plus the packed form.
        let mut quant_weight = |t: Tensor| -> Result<(OnceLock<Tensor>, Option<PackedW4>)> {
            match precision.weight {
                Some(scheme) if packable => {
                    let packed = PackedW4::quantize(&t, scheme)?;
                    storage_bits += packed.storage_bits();
                    Ok((OnceLock::new(), Some(packed)))
                }
                Some(scheme) => {
                    let q = QuantizedTensor::quantize(&t, scheme)?;
                    storage_bits += q.storage_bits();
                    Ok((OnceLock::from(q.dequantize()), None))
                }
                None => {
                    storage_bits += t.len() * 16;
                    Ok((OnceLock::from(t), None))
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
                conv_weight: tap_major(conv_weight)?,
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
    #[inline(always)]
    fn quantize_act(&self, isa: Isa, v: &mut [f32], act: &mut ActQuant) -> Result<()> {
        match (self.precision.act, self.integer()) {
            (Some(scheme), true) => act.quantize_on(isa, v, scheme),
            (Some(scheme), false) => fake_quant_slice(v, scheme),
            (None, _) => Ok(()),
        }
    }

    /// The lane, up to the input projection: each row's pre-norm of the
    /// residual stream `x` into its `normed` (the rows' sums
    /// interleaved), the method's activation conditioning, activation
    /// quantization.
    #[inline(always)]
    fn pre_in_proj(
        &self,
        isa: Isa,
        block: &QBlock,
        xs: &[Vec<f32>],
        blocks: &mut [BlockScratch],
        acts: &mut [ActQuant],
    ) -> Result<()> {
        for (x, s) in xs.iter().zip(blocks.iter_mut()) {
            s.normed.copy_from_slice(x);
        }
        norm::rms_norm_rows(blocks, |s| &mut s.normed[..], &block.norm_gamma, 1e-5);
        for (s, act) in blocks.iter_mut().zip(acts.iter_mut()) {
            condition(&mut s.normed, &block.in_act_shift, &block.in_act_scale);
            self.quantize_act(isa, &mut s.normed, act)?;
        }
        Ok(())
    }

    /// One sequence, from the input projection's output in
    /// `scratch.proj` through conv + SiLU and the SSM recurrence on
    /// `lstate` to the SSM output in `scratch.y`. `logical` holds the
    /// SSM state in its logical order while `LightMamba*` quantizes it.
    #[inline(always)]
    fn mix_scan(
        &self,
        isa: Isa,
        block: &QBlock,
        scratch: &mut BlockScratch,
        lstate: &mut LayerState,
        logical: &mut Vec<f32>,
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

        // Causal conv over (x, B, C), read in place, SiLU as it stores.
        lstate.conv.step_silu_into_on(
            isa,
            &scratch.proj[s.xbc().0..s.xbc().1],
            &block.conv_weight,
            &block.conv_bias,
            &mut scratch.conv_out,
        )?;

        // SSM quantization (LightMamba*): quantize the element-wise
        // chain's operands and re-quantize state and output, modelling
        // the INT8 per-group PoT dataflow of the SSMU (identical in both
        // execution modes — the SSM never runs on the MMU).
        if let Some(sq) = ssm_scheme {
            fake_quant_slice(&mut scratch.conv_out[0..di], sq)?;
            fake_quant_slice(&mut scratch.conv_out[di..di + g], sq)?;
            fake_quant_slice(&mut scratch.conv_out[di + g..di + 2 * g], sq)?;
        }
        ssm_step_into_on(
            isa,
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
            fake_quant_state(self.dims, &mut lstate.h, sq, logical)?;
            fake_quant_slice(&mut scratch.y, sq)?;
        }
        Ok(())
    }

    /// The lane, from each row's SSM output in `y` to the quantized
    /// out_proj input in `y` / its `act`: the gate, the gated norm (scale
    /// kept unfused per Fig. 4b; the rows' sums interleaved), the online
    /// rotation, the method's conditioning and activation quantization.
    #[inline(always)]
    fn mix_out(
        &self,
        isa: Isa,
        block: &QBlock,
        blocks: &mut [BlockScratch],
        acts: &mut [ActQuant],
    ) -> Result<()> {
        let z = self.split.z;
        for s in blocks.iter_mut() {
            activation::silu_gate(&mut s.y, &s.proj[z.0..z.1]);
        }
        norm::rms_norm_rows(blocks, |s| &mut s.y[..], &block.gate_norm_gamma, 1e-5);
        for (s, act) in blocks.iter_mut().zip(acts.iter_mut()) {
            if let Some(h) = &block.online_hadamard {
                h.apply_on(isa, &mut s.y);
            }
            condition(&mut s.y, &block.out_act_shift, &block.out_act_scale);
            self.quantize_act(isa, &mut s.y, act)?;
        }
        Ok(())
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
        batch::step(self, items, states, None, ws)
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

    /// Advances every row of a lane through one block, as phases: the
    /// element-wise ones over the lane's rows, whatever touches a row's
    /// sequence state per row in row order, and one GEMM across the
    /// lane's rows for each projection. A lane of one row runs the same
    /// code, so per-row arithmetic — and therefore every logit and state
    /// bit — does not depend on the batch or the chunk length. The
    /// host's tier is asked here, once per layer step, and handed down:
    /// on a vector host the phases run compiled for it and every kernel
    /// they call runs its form (same source, same bits: nothing
    /// contracts or reassociates without FMA).
    fn layer_step(
        &self,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.layer_step_on(detect(), layer, xs, lstates, scratch)
    }

    /// Final norm + optional activation quantization + LM head for each
    /// item's last row, one GEMM for all of them, writing into reusable
    /// logits buffers. On the host's tier, compilation and kernels, as
    /// [`DecodeKernels::layer_step`] is.
    fn finish(
        &self,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.finish_on(detect(), xs, logits, scratch)
    }
}

impl QuantizedMamba {
    /// [`DecodeKernels::layer_step`] on `isa`'s compilation of the
    /// phases, each kernel on `isa`'s form.
    #[inline(always)]
    fn layer_step_on(
        &self,
        isa: Isa,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        match isa {
            // SAFETY: no other crate can build a vector `Isa`, and
            // `detect` / `Isa::supported` hand one out only where the
            // features its copy enables are present.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { .. } => unsafe {
                self.layer_step_avx512(isa, layer, xs, lstates, scratch)
            },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 { .. } => unsafe { self.layer_step_avx2(isa, layer, xs, lstates, scratch) },
            Isa::Scalar => self.layer_step_body(isa, layer, xs, lstates, scratch),
        }
    }

    /// [`DecodeKernels::finish`] on `isa`'s compilation of the phases
    /// and form of the kernels.
    #[inline(always)]
    fn finish_on(
        &self,
        isa: Isa,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        match isa {
            // SAFETY: as in `layer_step_on`.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 { .. } => unsafe { self.finish_avx512(isa, xs, logits, scratch) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 { .. } => unsafe { self.finish_avx2(isa, xs, logits, scratch) },
            Isa::Scalar => self.finish_body(isa, xs, logits, scratch),
        }
    }

    /// [`QuantizedMamba::layer_step_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn layer_step_avx2(
        &self,
        isa: Isa,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.layer_step_body(isa, layer, xs, lstates, scratch)
    }

    /// [`QuantizedMamba::finish_body`] compiled for AVX2.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn finish_avx2(
        &self,
        isa: Isa,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.finish_body(isa, xs, logits, scratch)
    }

    /// [`QuantizedMamba::layer_step_body`] compiled for AVX-512.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX512F and AVX512BW.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn layer_step_avx512(
        &self,
        isa: Isa,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.layer_step_body(isa, layer, xs, lstates, scratch)
    }

    /// [`QuantizedMamba::finish_body`] compiled for AVX-512.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX512F and AVX512BW.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn finish_avx512(
        &self,
        isa: Isa,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        self.finish_body(isa, xs, logits, scratch)
    }

    #[inline(always)]
    fn layer_step_body(
        &self,
        isa: Isa,
        layer: usize,
        xs: &mut [Vec<f32>],
        lstates: &mut LayerBatch<'_>,
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let block = &self.weights.blocks[layer];
        let n = xs.len();
        scratch.prepare(n, &self.cfg);
        let QuantScratch {
            blocks,
            acts,
            gemm,
            logical_state,
        } = scratch;
        let (blocks, acts) = (&mut blocks[..n], &mut acts[..n]);

        self.pre_in_proj(isa, block, xs, blocks, acts)?;
        match (&block.w_in_packed, self.integer()) {
            (Some(packed), true) => gemm_rows(isa, packed, acts, gemm, blocks, |s| &mut s.proj)?,
            _ => {
                let w_in = oracle(&block.w_in, &block.w_in_packed);
                for s in blocks.iter_mut() {
                    w_in.vecmat_into(&s.normed, &mut s.proj)?;
                }
            }
        }
        for (k, s) in blocks.iter_mut().enumerate() {
            self.mix_scan(isa, block, s, lstates.state_mut(k), logical_state)?;
        }
        self.mix_out(isa, block, blocks, acts)?;
        match (&block.w_out_packed, self.integer()) {
            (Some(packed), true) => gemm_rows(isa, packed, acts, gemm, blocks, |s| &mut s.out)?,
            _ => {
                let w_out = oracle(&block.w_out, &block.w_out_packed);
                for s in blocks.iter_mut() {
                    w_out.vecmat_into(&s.y, &mut s.out)?;
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

    #[inline(always)]
    fn finish_body(
        &self,
        isa: Isa,
        xs: &mut [Vec<f32>],
        logits: &mut [Vec<f32>],
        scratch: &mut QuantScratch,
    ) -> Result<()> {
        let QuantScratch { acts, gemm, .. } = scratch;
        if acts.len() < xs.len() {
            acts.resize_with(xs.len(), ActQuant::new);
        }
        let acts = &mut acts[..xs.len()];
        norm::rms_norm_rows(xs, |x| &mut x[..], &self.weights.final_norm_gamma, 1e-5);
        for (x, act) in xs.iter_mut().zip(acts.iter_mut()) {
            self.quantize_act(isa, x, act)?;
        }
        match (&self.weights.lm_head_packed, self.integer()) {
            (Some(packed), true) => gemm_packed_on(isa, packed, acts, gemm, logits)?,
            _ => {
                let lm_head = oracle(&self.weights.lm_head, &self.weights.lm_head_packed);
                for (x, logits) in xs.iter().zip(logits.iter_mut()) {
                    logits.resize(self.cfg.vocab_size, 0.0);
                    lm_head.vecmat_into(x, logits)?;
                }
            }
        }
        Ok(())
    }
}

/// The f32 weight the fake-quant path computes with: `weight` as built,
/// or, for a packed one, the packed grid dequantized on first use.
fn oracle<'a>(weight: &'a OnceLock<Tensor>, packed: &Option<PackedW4>) -> &'a Tensor {
    weight.get_or_init(|| {
        packed
            .as_ref()
            .expect("a linear weight without its f32 tensor is packed")
            .dequantized_weight()
    })
}

/// A method's activation conditioning of a projection input, in place:
/// minus the shift, then divided by the scale, each when present.
#[inline(always)]
fn condition(v: &mut [f32], shift: &Option<Vec<f32>>, scale: &Option<Vec<f32>>) {
    if let Some(shift) = shift {
        for (v, s) in v.iter_mut().zip(shift.iter()) {
            *v -= s;
        }
    }
    if let Some(scale) = scale {
        for (v, s) in v.iter_mut().zip(scale.iter()) {
            *v /= s;
        }
    }
}

/// `LightMamba*`'s PoT re-quantization of a layer's SSM state: the
/// groups of `scheme` run over the logical `[h][p][n]` order, as
/// [`fake_quant_slice`] on that view sees them, whatever order the state
/// is stored in. `logical` is the reusable view buffer.
///
/// # Errors
///
/// Propagates [`fake_quant_slice`]'s scheme errors.
fn fake_quant_state(
    dims: SsmDims,
    state: &mut [f32],
    scheme: QuantScheme,
    logical: &mut Vec<f32>,
) -> Result<()> {
    logical.resize(dims.state_len(), 0.0);
    state_to_logical(dims, state, logical);
    fake_quant_slice(logical, scheme)?;
    state_from_logical(dims, logical, state);
    Ok(())
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
    fn state_quantization_sees_the_logical_groups() {
        // LightMamba*'s PoT groups run over `[h][p][n]`; the state is
        // stored `[h][n][p]`. Groups of 16 straddle rows of 5 and heads
        // of 15, and each logical group has its own magnitude, so any
        // other grouping moves some scale.
        use lightmamba_model::ssm::{state_from_logical, state_to_logical};
        let dims = SsmDims {
            nheads: 3,
            headdim: 3,
            d_state: 5,
            ngroups: 1,
        };
        let scheme = QuantScheme::ssm_pot(16);
        let mut rng = StdRng::seed_from_u64(36);
        let logical: Vec<f32> = (0..dims.state_len())
            .map(|i| rand::Rng::gen_range(&mut rng, -1.0f32..1.0) * (1 << (4 * (i / 16))) as f32)
            .collect();
        let mut stored = vec![0.0; dims.state_len()];
        state_from_logical(dims, &logical, &mut stored);
        let mut buf = Vec::new();
        fake_quant_state(dims, &mut stored, scheme, &mut buf).unwrap();
        let mut want = logical.clone();
        fake_quant_slice(&mut want, scheme).unwrap();
        let mut got = vec![0.0; dims.state_len()];
        state_to_logical(dims, &stored, &mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Quantizing the stored order directly would not be the same.
        let mut direct = vec![0.0; dims.state_len()];
        state_from_logical(dims, &logical, &mut direct);
        fake_quant_slice(&mut direct, scheme).unwrap();
        assert_ne!(bits(&direct), bits(&stored));
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
                    let err = batch::step(&q, single, &mut states, pool, &mut ws).unwrap_err();
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

    /// The sequences the engine-shaped waves run over.
    const SLOTS: usize = 16;

    /// Engine-shaped waves of `(slot, tokens)` items over [`SLOTS`]
    /// sequences: a 16 × 4 first wave, 15 decoders beside one 4-token
    /// chunk, a one-token wave, a 1-token item before a 5-token one
    /// (slots out of order), then 1..=4 tokens over seven items.
    fn waves() -> Vec<Vec<(usize, Vec<u32>)>> {
        let shapes: [Vec<(usize, usize)>; 5] = [
            (0..SLOTS).map(|s| (s, 4)).collect(),
            (0..SLOTS)
                .map(|s| (s, if s == 5 { 4 } else { 1 }))
                .collect(),
            (0..SLOTS).map(|s| (s, 1)).collect(),
            vec![(9, 1), (2, 5), (14, 1)],
            (0..7).map(|k| (2 * k, 1 + (k * 5) % 4)).collect(),
        ];
        let token = |w: usize, s: usize, i: usize| ((w * 53 + s * 31 + i * 7 + 3) % 256) as u32;
        (shapes.iter().enumerate())
            .map(|(w, shape)| {
                let tokens = |&(s, len)| (s, (0..len).map(|i| token(w, s, i)).collect());
                shape.iter().map(tokens).collect()
            })
            .collect()
    }

    #[test]
    fn phase_batched_steps_match_sequential_at_every_batch_size() {
        // Both execution modes, every lane cut (no pool; pools of 1, 3,
        // 4 and 16 threads, so also more threads than items), against
        // one sequence at a time through `forward_step_with`, logits and
        // states bit for bit: a ragged prefill (`advance`) and a decode
        // `step` at batches 1..=9 (every K-block remainder), then the
        // engine-shaped waves, one-token and multi-token items mixed in
        // one `advance` (an all-one-token wave through `step`).
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
        let next = |k: usize| (k as u32 * 13 + 3) % 256;
        let waves = waves();
        let mut pools = vec![None];
        pools.extend([1, 3, 4, 16].map(|t| Some(WorkerPool::new(t))));
        for q in [&q_int, &q_fake] {
            let mut want_states = Vec::new();
            let mut want_logits = [Vec::new(), Vec::new()];
            for (k, prompt) in prompts.iter().enumerate() {
                let mut state = q.new_state();
                let mut last = Vec::new();
                for &t in prompt {
                    last = q.forward_step_with(t, &mut state).unwrap();
                }
                want_logits[0].push(last);
                want_logits[1].push(q.forward_step_with(next(k), &mut state).unwrap());
                want_states.push(state);
            }
            let mut wave_states: Vec<_> = (0..SLOTS).map(|_| q.new_state()).collect();
            let mut wave_logits = Vec::new();
            for wave in &waves {
                let mut finals = Vec::new();
                for (slot, tokens) in wave {
                    let mut last = Vec::new();
                    for &t in tokens {
                        last = q.forward_step_with(t, &mut wave_states[*slot]).unwrap();
                    }
                    finals.push(last);
                }
                wave_logits.push(finals);
            }
            for pool in &pools {
                let pool = pool.as_ref();
                for n in 1..=prompts.len() {
                    let ragged: Vec<(usize, &[u32])> =
                        prompts[..n].iter().map(|p| &p[..]).enumerate().collect();
                    let decode: Vec<(usize, u32)> = (0..n).map(|k| (k, next(k))).collect();
                    let label = format!("{:?} batch {n} pool {pool:?}", q.exec_mode());
                    let mut states: Vec<ModelState> = (0..n).map(|_| q.new_state()).collect();
                    let mut ws = QuantWorkspace::new();
                    let prefill = batch::advance(q, &ragged, &mut states, pool, &mut ws).unwrap();
                    assert_eq!(prefill, want_logits[0][..n], "{label}: prefill");
                    batch::step(q, &decode, &mut states, pool, &mut ws).unwrap();
                    assert_eq!(ws.logits(), &want_logits[1][..n], "{label}: decode");
                    assert_eq!(states, want_states[..n], "{label}: states");
                }
                let label = format!("{:?} pool {pool:?}", q.exec_mode());
                let mut states: Vec<_> = (0..SLOTS).map(|_| q.new_state()).collect();
                let mut ws = QuantWorkspace::new();
                for (w, (wave, want)) in waves.iter().zip(&wave_logits).enumerate() {
                    let got = if wave.iter().all(|(_, tokens)| tokens.len() == 1) {
                        let single: Vec<(usize, u32)> =
                            wave.iter().map(|(s, t)| (*s, t[0])).collect();
                        batch::step(q, &single, &mut states, pool, &mut ws).unwrap();
                        ws.logits().to_vec()
                    } else {
                        let items: Vec<(usize, &[u32])> =
                            wave.iter().map(|(s, t)| (*s, &t[..])).collect();
                        batch::advance(q, &items, &mut states, pool, &mut ws).unwrap()
                    };
                    assert_eq!(&got, want, "{label}: wave {w}");
                }
                assert_eq!(states, wave_states, "{label}: wave states");
            }
        }
    }

    /// FNV-1a (64-bit) over the bits of what a model set-up produces.
    struct Fnv(u64);

    impl Fnv {
        fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
            for b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }

        fn f32s(&mut self, xs: &[f32]) {
            self.bytes(xs.len().to_le_bytes());
            self.f32s_raw(xs);
        }

        fn f32s_raw(&mut self, xs: &[f32]) {
            self.bytes(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        }

        fn opt(&mut self, xs: &Option<Vec<f32>>) {
            match xs {
                Some(xs) => self.f32s(xs),
                None => self.bytes([0xFF]),
            }
        }

        fn packed(&mut self, p: &Option<PackedW4>) {
            let p = p
                .as_ref()
                .expect("a packable precision packs every linear weight");
            self.bytes(p.layout_bytes());
            self.f32s(p.scales());
        }
    }

    /// The digest of `quantize_model(LightMamba, w4a4_grouped(group))`
    /// of the synthetic model of `cfg` under `seed`: every f32 tensor
    /// and conditioning vector of the rotated model, then every packed
    /// block, scale, fake-quant weight and vector of the quantized one.
    fn setup_digest(cfg: MambaConfig, seed: u64, group: usize) -> u64 {
        use crate::pipeline::{quantize_model, rewrite, Method, QuantSpec};
        let model = MambaModel::synthetic(cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut p = PreparedModel::from_reference(&model).unwrap();
        rewrite(&mut p, Method::LightMamba, &model, &[]).unwrap();
        h.f32s(p.embedding.data());
        h.f32s(p.lm_head.data());
        h.f32s(&p.final_norm_gamma);
        for b in &p.blocks {
            h.f32s(&b.norm_gamma);
            h.f32s(b.w_in.data());
            h.opt(&b.w_in_bias);
            h.opt(&b.in_act_scale);
            h.opt(&b.in_act_shift);
            h.f32s(b.conv_weight.data());
            for v in [
                &b.conv_bias,
                &b.a_log,
                &b.dt_bias,
                &b.d_skip,
                &b.gate_norm_gamma,
            ] {
                h.f32s(v);
            }
            h.opt(&b.out_act_scale);
            h.opt(&b.out_act_shift);
            h.f32s(b.w_out.data());
            h.opt(&b.w_out_bias);
        }
        let q = quantize_model(
            &model,
            Method::LightMamba,
            &QuantSpec::w4a4_grouped(group),
            &[],
        )
        .unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        let w = &q.weights;
        h.f32s(w.embedding.data());
        h.packed(&w.lm_head_packed);
        h.f32s(oracle(&w.lm_head, &w.lm_head_packed).data());
        h.f32s(&w.final_norm_gamma);
        for b in &w.blocks {
            h.f32s(&b.norm_gamma);
            h.packed(&b.w_in_packed);
            h.f32s(oracle(&b.w_in, &b.w_in_packed).data());
            h.opt(&b.w_in_bias);
            h.opt(&b.in_act_scale);
            h.opt(&b.in_act_shift);
            h.f32s(b.conv_weight.data());
            for v in [
                &b.conv_bias,
                &b.a_log,
                &b.dt_bias,
                &b.d_skip,
                &b.gate_norm_gamma,
            ] {
                h.f32s(v);
            }
            h.opt(&b.out_act_scale);
            h.opt(&b.out_act_shift);
            h.packed(&b.w_out_packed);
            h.f32s(oracle(&b.w_out, &b.w_out_packed).data());
            h.opt(&b.w_out_bias);
        }
        h.0
    }

    #[test]
    fn setup_digest_of_a_ragged_model_is_pinned() {
        // No dimension is a multiple of 16, 32 or 64, and every weight's
        // last group is short: d_model 20 = 16 + 4, d_inner 40 = 2·16 +
        // 8, 102 in_proj outputs, a 77-token vocabulary.
        let cfg = MambaConfig {
            d_model: 20,
            n_layer: 2,
            d_state: 9,
            d_conv: 4,
            expand: 2,
            headdim: 10,
            ngroups: 1,
            vocab_size: 77,
        };
        assert_eq!(setup_digest(cfg, 3, 16), 0xaa06_1aa1_3a9b_0762);
    }

    /// The benchmark's model and quantization (release only: the
    /// rotation of a 256-wide, 2048-token model is slow in debug).
    #[cfg(not(debug_assertions))]
    #[test]
    fn setup_digest_of_the_benchmark_model_is_pinned() {
        let cfg = MambaConfig {
            d_model: 256,
            n_layer: 4,
            d_state: 64,
            d_conv: 4,
            expand: 2,
            headdim: 64,
            ngroups: 1,
            vocab_size: 2048,
        };
        assert_eq!(setup_digest(cfg, 7, 128), 0xf929_ebf0_208a_c170);
    }

    #[test]
    fn fake_quant_copies_are_built_on_first_use_with_pinned_logits() {
        use crate::pipeline::{quantize_model, Method, QuantSpec};
        let spec = QuantSpec::w4a4_grouped(16);
        let q_int = quantize_model(&reference(), Method::LightMamba, &spec, &[]).unwrap();
        let q_fake = q_int.clone().with_exec_mode(ExecMode::FakeQuant).unwrap();
        let w = &q_int.weights;
        let built = || {
            let blocks = w.blocks.iter().flat_map(|b| [&b.w_in, &b.w_out]);
            blocks
                .chain([&w.lm_head])
                .map(|t| t.get().is_some())
                .collect::<Vec<_>>()
        };
        let tokens = [5u32, 9, 2, 40, 1, 7];
        let mut state = q_int.new_state();
        for &t in &tokens {
            q_int.forward_step_with(t, &mut state).unwrap();
        }
        assert!(
            built().iter().all(|&b| !b),
            "integer steps built an f32 copy"
        );
        // The oracle's logits are those of the eagerly built copies.
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let mut state = q_fake.new_state();
        for &t in &tokens {
            h.f32s_raw(&q_fake.forward_step_with(t, &mut state).unwrap());
        }
        assert!(
            built().iter().all(|&b| b),
            "a fake-quant step left a copy unbuilt"
        );
        assert_eq!(h.0, 0xae6f_860f_7037_1f50);
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
        let w_in = q.weights.blocks[0]
            .w_in
            .get()
            .expect("FP weights are set at construction");
        assert_eq!(w_in.data().as_ptr(), w_in_ptr);
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

    /// `q`'s decode on one tier's phase copy and kernel forms, whatever
    /// the host's best.
    struct OnIsa<'a>(&'a QuantizedMamba, Isa);

    impl DecodeKernels for OnIsa<'_> {
        type Scratch = QuantScratch;
        type Error = QuantError;

        fn config(&self) -> &MambaConfig {
            self.0.config()
        }

        fn embed(&self, token: u32, x: &mut Vec<f32>) -> Result<()> {
            DecodeKernels::embed(self.0, token, x)
        }

        fn layer_step(
            &self,
            layer: usize,
            xs: &mut [Vec<f32>],
            lstates: &mut LayerBatch<'_>,
            scratch: &mut QuantScratch,
        ) -> Result<()> {
            self.0.layer_step_on(self.1, layer, xs, lstates, scratch)
        }

        fn finish(
            &self,
            xs: &mut [Vec<f32>],
            logits: &mut [Vec<f32>],
            scratch: &mut QuantScratch,
        ) -> Result<()> {
            self.0.finish_on(self.1, xs, logits, scratch)
        }
    }

    #[test]
    fn every_phase_copy_matches_the_baseline_bit_for_bit() {
        // The benchmark's W4A4 widths (two of its four layers, a
        // quarter of its vocabulary) and call shape: a ragged 16-item
        // advance, then 20 batch-16 steps, on every copy this host can
        // run, each on its own tier's kernels (GEMM, act-quant, conv,
        // SSM scan, Hadamard), logits and states against the baseline
        // copy's bits on the scalar kernels.
        let cfg = MambaConfig {
            d_model: 256,
            n_layer: 2,
            d_state: 64,
            d_conv: 4,
            expand: 2,
            headdim: 64,
            ngroups: 1,
            vocab_size: 512,
        };
        let fp = MambaModel::synthetic(cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        let spec = crate::pipeline::QuantSpec::w4a4_grouped(128);
        let q =
            crate::pipeline::quantize_model(&fp, crate::pipeline::Method::LightMamba, &spec, &[])
                .unwrap();
        assert_eq!(q.exec_mode(), ExecMode::Integer);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let run = |isa: Isa| {
            let sweeps = crate::simd::tests::AMX_SWEEPS.with(|n| n.get());
            let model = OnIsa(&q, isa);
            let mut states: Vec<ModelState> = (0..SLOTS).map(|_| q.new_state()).collect();
            let mut ws = QuantWorkspace::new();
            let token = |s: usize, i: usize| ((s * 31 + i * 7 + 3) % 512) as u32;
            let prompts: Vec<Vec<u32>> = (0..SLOTS)
                .map(|s| (0..1 + s % 5).map(|i| token(s, i)).collect())
                .collect();
            let items: Vec<(usize, &[u32])> =
                prompts.iter().map(Vec::as_slice).enumerate().collect();
            let mut logits = batch::advance(&model, &items, &mut states, None, &mut ws).unwrap();
            for t in 0..20 {
                let items: Vec<(usize, u32)> = (0..SLOTS).map(|s| (s, token(s, 5 + t))).collect();
                batch::step(&model, &items, &mut states, None, &mut ws).unwrap();
                logits.extend(ws.logits().iter().cloned());
            }
            let logits: Vec<Vec<u32>> = logits.iter().map(|l| bits(l)).collect();
            let h: Vec<Vec<u32>> = (states.iter().flat_map(|s| &s.layers))
                .map(|l| bits(&l.h))
                .collect();
            // The batch-16 projections and LM heads take the AMX form
            // on the copy that grants it, and no other.
            let amx = crate::simd::tests::AMX_SWEEPS.with(|n| n.get()) > sweeps;
            assert_eq!(
                amx,
                crate::simd::amx_form(isa, SLOTS),
                "{isa:?}: AMX sweeps"
            );
            (logits, h, states)
        };
        let (logits, h, states) = run(Isa::Scalar);
        for isa in Isa::supported().skip(1) {
            let (got_logits, got_h, got_states) = run(isa);
            assert!(got_logits == logits, "{isa:?} copy: logits differ");
            assert!(got_h == h, "{isa:?} copy: SSM states differ");
            assert_eq!(got_states, states, "{isa:?} copy: conv windows differ");
        }
    }
}
