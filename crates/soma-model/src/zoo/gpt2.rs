//! GPT-2 (Radford et al., 2019) prefill and decode graphs, plus the
//! Transformer-Large encoder used by the paper's Fig. 3(b).
//!
//! Modelling notes:
//!
//! * Transformer activations map `seq -> h`, `hidden -> c` so the
//!   scheduler's batch/h tiling tiles the token dimension.
//! * Attention score maps are modelled head-aggregated (`seq x seq`); the
//!   operation count is exact (`2 n s^2 d` per matmul pair) since the
//!   reduction uses the full hidden dimension.
//! * Decode-phase KV caches are DRAM-resident read-only operands attached
//!   to the attention matmuls (`weight_bytes`), which is exactly how the
//!   schedule treats them: whole-tensor loads that scale with batch and
//!   context length. New K/V token vectors are network outputs (cache
//!   append).
//! * The vocabulary head is excluded (single weight tensor larger than any
//!   evaluated buffer; see `zoo` module docs).

use crate::builder::NetworkBuilder;
use crate::graph::Network;
use crate::layer::{EltOp, Src, VecOp};
use crate::shape::FmapShape;

/// Size/topology parameters of a GPT-2-family model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gpt2Config {
    /// Model name prefix.
    pub name: &'static str,
    /// Hidden dimension.
    pub d: u32,
    /// Number of transformer blocks.
    pub blocks: u32,
    /// Attention heads (informational; ops use `d` directly).
    pub heads: u32,
}

/// GPT-2-Small: 12 blocks, d=768.
pub const GPT2_SMALL: Gpt2Config = Gpt2Config { name: "gpt2-small", d: 768, blocks: 12, heads: 12 };
/// GPT-2-XL: 48 blocks, d=1600.
pub const GPT2_XL: Gpt2Config = Gpt2Config { name: "gpt2-xl", d: 1600, blocks: 48, heads: 25 };

/// One prefill transformer block; returns the residual-stream output.
fn prefill_block(b: &mut NetworkBuilder, x: Src, d: u32, seq: u32, tag: &str) -> Src {
    let ln1 = b.vector(format!("{tag}.ln1"), VecOp::LayerNorm, x);
    let q = b.linear(format!("{tag}.q"), &[ln1], d);
    let k = b.linear(format!("{tag}.k"), &[ln1], d);
    let v = b.linear(format!("{tag}.v"), &[ln1], d);
    let scores = b.matmul(format!("{tag}.qk"), q, k, seq, 0);
    let soft = b.vector(format!("{tag}.softmax"), VecOp::Softmax, scores);
    let attn = b.matmul(format!("{tag}.pv"), soft, v, d, 0);
    let proj = b.linear(format!("{tag}.proj"), &[attn], d);
    let res1 = b.eltwise(format!("{tag}.add1"), EltOp::Add, &[x, proj]);
    let ln2 = b.vector(format!("{tag}.ln2"), VecOp::LayerNorm, res1);
    let fc1 = b.linear(format!("{tag}.fc1"), &[ln2], 4 * d);
    let gelu = b.vector(format!("{tag}.gelu"), VecOp::Gelu, fc1);
    let fc2 = b.linear(format!("{tag}.fc2"), &[gelu], d);
    b.eltwise(format!("{tag}.add2"), EltOp::Add, &[res1, fc2])
}

/// One decode transformer block for a single new token with `past` cached
/// tokens; K/V caches are DRAM operands of the matmuls, and the new K/V
/// vectors are network outputs.
fn decode_block(
    b: &mut NetworkBuilder,
    x: Src,
    d: u32,
    past: u32,
    batch: u32,
    prec: u32,
    tag: &str,
) -> Src {
    let kv_cache_bytes = u64::from(batch) * u64::from(past) * u64::from(d) * u64::from(prec);
    let ln1 = b.vector(format!("{tag}.ln1"), VecOp::LayerNorm, x);
    let q = b.linear(format!("{tag}.q"), &[ln1], d);
    let k = b.linear(format!("{tag}.k"), &[ln1], d);
    let v = b.linear(format!("{tag}.v"), &[ln1], d);
    b.mark_output(k); // KV-cache append
    b.mark_output(v);
    let scores = b.matmul(format!("{tag}.qk"), q, k, past + 1, kv_cache_bytes);
    let soft = b.vector(format!("{tag}.softmax"), VecOp::Softmax, scores);
    let attn = b.matmul(format!("{tag}.pv"), soft, v, d, kv_cache_bytes);
    let proj = b.linear(format!("{tag}.proj"), &[attn], d);
    let res1 = b.eltwise(format!("{tag}.add1"), EltOp::Add, &[x, proj]);
    let ln2 = b.vector(format!("{tag}.ln2"), VecOp::LayerNorm, res1);
    let fc1 = b.linear(format!("{tag}.fc1"), &[ln2], 4 * d);
    let gelu = b.vector(format!("{tag}.gelu"), VecOp::Gelu, fc1);
    let fc2 = b.linear(format!("{tag}.fc2"), &[gelu], d);
    b.eltwise(format!("{tag}.add2"), EltOp::Add, &[res1, fc2])
}

/// GPT-2 prefill over `seq` tokens.
pub fn gpt2_prefill(cfg: Gpt2Config, batch: u32, seq: u32) -> Network {
    let mut b = NetworkBuilder::new(format!("{}-prefill{}", cfg.name, seq), 1);
    let x = b.external(FmapShape::tokens(batch, cfg.d, seq));
    let mut cur = x;
    for i in 0..cfg.blocks {
        cur = prefill_block(&mut b, cur, cfg.d, seq, &format!("blk{i}"));
    }
    b.mark_output(cur);
    b.finish()
}

/// GPT-2 decode of the `(past + 1)`-th token.
pub fn gpt2_decode(cfg: Gpt2Config, batch: u32, past: u32) -> Network {
    let mut b = NetworkBuilder::new(format!("{}-decode{}", cfg.name, past + 1), 1);
    let prec = 1;
    let x = b.external(FmapShape::tokens(batch, cfg.d, 1));
    let mut cur = x;
    for i in 0..cfg.blocks {
        cur = decode_block(&mut b, cur, cfg.d, past, batch, prec, &format!("blk{i}"));
    }
    b.mark_output(cur);
    b.finish()
}

/// GPT-2-Small prefill (edge workload: token length 512 in the paper).
pub fn gpt2_small_prefill(batch: u32, seq: u32) -> Network {
    gpt2_prefill(GPT2_SMALL, batch, seq)
}

/// GPT-2-Small decode of the `(past + 1)`-th token.
pub fn gpt2_small_decode(batch: u32, past: u32) -> Network {
    gpt2_decode(GPT2_SMALL, batch, past)
}

/// GPT-2-XL prefill (cloud workload: token length 1024 in the paper).
pub fn gpt2_xl_prefill(batch: u32, seq: u32) -> Network {
    gpt2_prefill(GPT2_XL, batch, seq)
}

/// GPT-2-XL decode of the `(past + 1)`-th token.
pub fn gpt2_xl_decode(batch: u32, past: u32) -> Network {
    gpt2_decode(GPT2_XL, batch, past)
}

/// Transformer-Large encoder (Vaswani et al.: 6 blocks, d=1024, 16 heads),
/// used for the paper's Fig. 3(b)/(d) scatter analysis.
pub fn transformer_large(batch: u32, seq: u32) -> Network {
    let cfg = Gpt2Config { name: "transformer-large", d: 1024, blocks: 6, heads: 16 };
    let mut b = NetworkBuilder::new(format!("{}-{}", cfg.name, seq), 1);
    let x = b.external(FmapShape::tokens(batch, cfg.d, seq));
    let mut cur = x;
    for i in 0..cfg.blocks {
        cur = prefill_block(&mut b, cur, cfg.d, seq, &format!("blk{i}"));
    }
    b.mark_output(cur);
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefill_sizes() {
        let net = gpt2_small_prefill(1, 512);
        assert!(net.validate().is_ok());
        assert_eq!(net.len(), 12 * 14);
        // ~85M transformer parameters (12 d^2 per block).
        let mb = net.total_weight_bytes() as f64 / 1e6;
        assert!((75.0..95.0).contains(&mb), "weights {mb} MB");
        // Prefill ops roughly 2 * params * seq.
        let expected = 2.0 * mb * 1e6 * 512.0;
        let ops = net.total_ops() as f64;
        assert!(ops > 0.8 * expected && ops < 1.6 * expected, "ops {ops}");
    }

    #[test]
    fn decode_kv_cache_scales_with_batch_and_context() {
        let a = gpt2_small_decode(1, 512);
        let b = gpt2_small_decode(4, 512);
        let kv_a: u64 = a
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, crate::LayerKind::Matmul))
            .map(|l| l.weight_bytes)
            .sum();
        let kv_b: u64 = b
            .layers()
            .iter()
            .filter(|l| matches!(l.kind, crate::LayerKind::Matmul))
            .map(|l| l.weight_bytes)
            .sum();
        assert_eq!(kv_b, 4 * kv_a);
        // KV per block: 2 * past * d = 2*512*768.
        assert_eq!(kv_a, 12 * 2 * 512 * 768);
    }

    #[test]
    fn decode_is_memory_dominated() {
        let net = gpt2_small_decode(1, 512);
        // Compute density (ops/byte of weights+KV) must be tiny (~2).
        let density = net.total_ops() as f64 / net.total_weight_bytes() as f64;
        assert!(density < 8.0, "density {density}");
    }

    #[test]
    fn decode_marks_kv_outputs() {
        let net = gpt2_small_decode(1, 16);
        let n_outputs = net.iter().filter(|&(id, _)| net.is_output(id)).count();
        // 2 per block (k, v) + final residual.
        assert_eq!(n_outputs, 12 * 2 + 1);
    }

    #[test]
    fn xl_is_much_bigger() {
        let s = gpt2_small_prefill(1, 64);
        let x = gpt2_xl_prefill(1, 64);
        assert!(x.total_weight_bytes() > 15 * s.total_weight_bytes());
    }

    #[test]
    fn transformer_large_builds() {
        let net = transformer_large(1, 512);
        assert!(net.validate().is_ok());
        assert_eq!(net.len(), 6 * 14);
    }
}
