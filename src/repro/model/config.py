"""Model configuration and per-layer operation inventory.

:class:`ModelConfig` describes a GPT-2-style decoder-only transformer.  The
presets include the GPT-2 345M ("medium") configuration the paper evaluates
and two small configurations used by the functional tests (they keep the
numerics cheap while exercising identical code paths).

The linear-layer inventory (:func:`layer_linear_specs`) is what the
performance models consume: every linear layer's dimensions, and therefore
its int8 weight bytes and MAC count, per transformer block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class LinearLayerSpec:
    """One linear layer inside a transformer block.

    Attributes
    ----------
    name:
        Layer identifier (``qkv``, ``attn_proj``, ``mlp_fc``, ``mlp_proj``).
    in_features, out_features:
        Matrix dimensions (weight is ``[out_features, in_features]``).
    parallel_axis:
        How the layer is split under the paper's model-parallel scheme:
        weights are distributed along the **output** dimension, so every
        layer here uses ``"output"``; kept as a field so alternative schemes
        can be explored in the design-space examples.
    """

    name: str
    in_features: int
    out_features: int
    parallel_axis: str = "output"

    @property
    def weight_elements(self) -> int:
        return self.in_features * self.out_features

    def weight_bytes(self, bytes_per_weight: int = 1) -> int:
        """Weight storage (int8 by default, matching W8A8)."""
        return self.weight_elements * bytes_per_weight

    def macs_per_token(self) -> int:
        """Multiply-accumulate operations for one token through this layer."""
        return self.weight_elements

    def out_features_per_node(self, num_nodes: int) -> int:
        """Output features computed by one node when split across ``num_nodes``."""
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        return -(-self.out_features // num_nodes)


@dataclass(frozen=True)
class ModelConfig:
    """A decoder-only transformer configuration.

    The default values are irrelevant — use the presets.
    """

    name: str = "gpt2-medium"
    num_layers: int = 24
    d_model: int = 1024
    num_heads: int = 16
    d_ff: int = 4096
    vocab_size: int = 50257
    max_seq_len: int = 1024
    layer_norm_eps: float = 1e-5

    def __post_init__(self) -> None:
        if min(self.num_layers, self.d_model, self.num_heads, self.d_ff,
               self.vocab_size, self.max_seq_len) <= 0:
            raise ValueError("all model dimensions must be positive")
        if self.d_model % self.num_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} is not divisible by num_heads={self.num_heads}")

    # ------------------------------------------------------------------
    # derived dimensions
    # ------------------------------------------------------------------
    @property
    def head_dim(self) -> int:
        return self.d_model // self.num_heads

    @property
    def qkv_out_features(self) -> int:
        return 3 * self.d_model

    # ------------------------------------------------------------------
    # parameter / operation accounting
    # ------------------------------------------------------------------
    def linear_weight_elements_per_layer(self) -> int:
        """Weight elements of the four linear layers in one block."""
        return sum(spec.weight_elements for spec in layer_linear_specs(self))

    def linear_weight_bytes_per_layer(self, bytes_per_weight: int = 1) -> int:
        return self.linear_weight_elements_per_layer() * bytes_per_weight

    def linear_weight_bytes_total(self, bytes_per_weight: int = 1) -> int:
        """Linear-layer weight bytes across all blocks (what a decode step
        streams from HBM)."""
        return self.num_layers * self.linear_weight_bytes_per_layer(bytes_per_weight)

    def attention_macs_per_token(self, seq_len: int) -> int:
        """MACs per generated token spent in attention score + token mixing
        over a cached sequence of ``seq_len`` positions (all blocks)."""
        if seq_len < 0:
            raise ValueError("negative sequence length")
        per_layer = 2 * seq_len * self.d_model  # QK^T and attn @ V
        return self.num_layers * per_layer

    def kv_bytes_per_token(self, bytes_per_element: int = 1) -> int:
        """KV-cache bytes appended per generated token (all blocks)."""
        return self.num_layers * 2 * self.d_model * bytes_per_element

    def kv_read_bytes_per_decode_step(self, seq_len: int,
                                      bytes_per_element: int = 1) -> int:
        """KV-cache bytes read during one decode step at context ``seq_len``."""
        return self.num_layers * 2 * self.d_model * seq_len * bytes_per_element

    def embedding_parameters(self) -> int:
        return self.vocab_size * self.d_model + self.max_seq_len * self.d_model

    def total_parameters(self) -> int:
        """Approximate parameter count (weights + biases + LN affine +
        embeddings), used only for sanity checks and reporting."""
        per_layer = self.linear_weight_elements_per_layer()
        per_layer += 4 * self.d_model + self.qkv_out_features + self.d_ff  # biases
        per_layer += 2 * 2 * self.d_model  # two LayerNorms (gamma, beta)
        final_ln = 2 * self.d_model
        return self.num_layers * per_layer + self.embedding_parameters() + final_ln

    # ------------------------------------------------------------------
    # presets
    # ------------------------------------------------------------------
    @staticmethod
    def gpt2_medium() -> "ModelConfig":
        """GPT-2 345M — the model evaluated in the paper."""
        return ModelConfig(name="gpt2-medium", num_layers=24, d_model=1024,
                           num_heads=16, d_ff=4096, vocab_size=50257,
                           max_seq_len=1024)

    @staticmethod
    def gpt2_small() -> "ModelConfig":
        """GPT-2 124M — used in the design-space exploration example."""
        return ModelConfig(name="gpt2-small", num_layers=12, d_model=768,
                           num_heads=12, d_ff=3072, vocab_size=50257,
                           max_seq_len=1024)

    @staticmethod
    def gpt2_large() -> "ModelConfig":
        """GPT-2 774M — used to project scaling beyond the paper's model."""
        return ModelConfig(name="gpt2-large", num_layers=36, d_model=1280,
                           num_heads=20, d_ff=5120, vocab_size=50257,
                           max_seq_len=1024)

    @staticmethod
    def tiny() -> "ModelConfig":
        """A functional-test configuration: tiny but structurally identical."""
        return ModelConfig(name="tiny", num_layers=2, d_model=64, num_heads=4,
                           d_ff=128, vocab_size=256, max_seq_len=64)

    @staticmethod
    def mini() -> "ModelConfig":
        """A slightly larger test configuration for integration tests."""
        return ModelConfig(name="mini", num_layers=4, d_model=128, num_heads=8,
                           d_ff=512, vocab_size=512, max_seq_len=128)


def layer_linear_specs(config: ModelConfig) -> List[LinearLayerSpec]:
    """The four linear layers of one transformer block, in execution order.

    These correspond to the stages the LoopLynx scheduler walks through when
    reusing the Fused MP kernel: QKV projection, attention output projection,
    MLP up-projection (fc), MLP down-projection.
    """
    return [
        LinearLayerSpec("qkv", config.d_model, config.qkv_out_features),
        LinearLayerSpec("attn_proj", config.d_model, config.d_model),
        LinearLayerSpec("mlp_fc", config.d_model, config.d_ff),
        LinearLayerSpec("mlp_proj", config.d_ff, config.d_model),
    ]
