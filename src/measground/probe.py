"""Desk-scale probe of camera-metadata conditioning.

The probe realizes the residual-injection mechanism, h <- Block(h) + g(m)
at selected late layers, over a tiny stack of dense blocks, together with a
question-side metadata serialization. A hand-written backward pass is
verified against central finite differences, which is the point of the
module: demonstrating that the conditioning path is trainable and that its
gradients are exactly what the injection pattern implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from . import formats
from .errors import ConfigInvalid, DomainError, NonFiniteGradient, ShapeMismatch
from .records import CameraMetadata, Positive, decode

ISO_REFERENCE = 100.0
EXPOSURE_REFERENCE = 1.0 / 60.0
APERTURE_REFERENCE = 4.0

TANH = "tanh"
LINEAR = "identity"


@dataclass(frozen=True)
class MetaVector:
    """log2-normalized capture metadata: stops relative to reference points."""

    values: tuple[float, float, float]
    source: CameraMetadata

    @classmethod
    def from_metadata(cls, metadata: CameraMetadata) -> "MetaVector":
        values = (
            math.log2(metadata.iso / ISO_REFERENCE),
            math.log2(metadata.exposure_time / EXPOSURE_REFERENCE),
            math.log2(metadata.aperture / APERTURE_REFERENCE),
        )
        return cls(values=values, source=metadata)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)


def serialize_metadata_question(
    question: str, metadata: CameraMetadata, enabled: bool = True
) -> str:
    """Append capture context to the question text.

    Formatting is fixed (iso as integer, exposure to 6 significant digits,
    aperture to 2 decimals) so the serialization is deterministic and
    injective over metadata that differ at this precision. With conditioning
    disabled the question is returned unchanged.
    """
    if not question:
        raise DomainError("question must be non-empty")
    if not enabled:
        return question
    return (
        f"{question} [CAMERA iso={int(round(metadata.iso))} "
        f"exposure={metadata.exposure_time:.6g}s "
        f"aperture=f/{metadata.aperture:.2f}]"
    )


def default_inject_layers(depth: int) -> tuple[int, ...]:
    """Last quarter of the stack, at least one layer."""
    count = max(1, math.ceil(depth / 4))
    return tuple(range(depth - count, depth))


@dataclass(frozen=True)
class ProbeStack:
    """L dense blocks (affine + nonlinearity) with a metadata projection g.

    ``projection_weight`` is (d, 3) when shared across injection layers or
    (L, d, 3) for per-layer projections; ``projection_bias`` follows suit.
    """

    weights: np.ndarray            # (L, d, d)
    biases: np.ndarray             # (L, d)
    projection_weight: np.ndarray  # (d, 3) or (L, d, 3)
    projection_bias: np.ndarray    # (d,) or (L, d)
    inject_layers: tuple[int, ...]
    nonlinearity: str = TANH

    def __post_init__(self):
        weights = np.array(self.weights, dtype=np.float64)
        biases = np.array(self.biases, dtype=np.float64)
        if weights.ndim != 3 or weights.shape[1] != weights.shape[2]:
            raise ShapeMismatch(f"weights must be (L, d, d), got {weights.shape}")
        depth, dim = weights.shape[:2]
        if depth < 1 or dim < 1:
            raise ShapeMismatch("depth and hidden_dim must be >= 1")
        if biases.shape != (depth, dim):
            raise ShapeMismatch(f"biases must be (L, d), got {biases.shape}")
        pw = np.array(self.projection_weight, dtype=np.float64)
        pb = np.array(self.projection_bias, dtype=np.float64)
        if pw.shape not in ((dim, 3), (depth, dim, 3)):
            raise ShapeMismatch(f"projection_weight must be (d, 3) or (L, d, 3), got {pw.shape}")
        expected_pb = (dim,) if pw.ndim == 2 else (depth, dim)
        if pb.shape != expected_pb:
            raise ShapeMismatch(f"projection_bias must be {expected_pb}, got {pb.shape}")
        layers = tuple(sorted(set(int(l) for l in self.inject_layers)))
        if any(l < 0 or l >= depth for l in layers):
            raise ShapeMismatch(f"inject_layers {layers} outside [0, {depth})")
        if self.nonlinearity not in (TANH, LINEAR):
            raise DomainError(f"unknown nonlinearity {self.nonlinearity!r}")
        for arr in (weights, biases, pw, pb):
            if not np.all(np.isfinite(arr)):
                raise DomainError("stack parameters must be finite")
            arr.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "biases", biases)
        object.__setattr__(self, "projection_weight", pw)
        object.__setattr__(self, "projection_bias", pb)
        object.__setattr__(self, "inject_layers", layers)

    @property
    def depth(self) -> int:
        return self.weights.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def per_layer_projection(self) -> bool:
        return self.projection_weight.ndim == 3

    def projection(self, layer: int, m: np.ndarray) -> np.ndarray:
        if self.per_layer_projection:
            return self.projection_weight[layer] @ m + self.projection_bias[layer]
        return self.projection_weight @ m + self.projection_bias


def random_stack(
    depth: int,
    hidden_dim: int,
    seed: int,
    inject_layers: tuple[int, ...] | None = None,
    nonlinearity: str = TANH,
    per_layer_projection: bool = False,
) -> ProbeStack:
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(max(hidden_dim, 1))
    pw_shape = (depth, hidden_dim, 3) if per_layer_projection else (hidden_dim, 3)
    pb_shape = (depth, hidden_dim) if per_layer_projection else (hidden_dim,)
    return ProbeStack(
        weights=rng.normal(0.0, scale, (depth, hidden_dim, hidden_dim)),
        biases=rng.normal(0.0, 0.1, (depth, hidden_dim)),
        projection_weight=rng.normal(0.0, scale, pw_shape),
        projection_bias=rng.normal(0.0, 0.1, pb_shape),
        inject_layers=inject_layers if inject_layers is not None else default_inject_layers(depth),
        nonlinearity=nonlinearity,
    )


def _forward_trace(stack: ProbeStack, h0: np.ndarray, m: np.ndarray, inject: bool):
    """Run the stack, keeping per-layer inputs and activations for backprop."""
    h = np.asarray(h0, dtype=np.float64)
    if h.shape != (stack.hidden_dim,):
        raise ShapeMismatch(f"h0 must be ({stack.hidden_dim},), got {h.shape}")
    inputs, activations = [], []
    for layer in range(stack.depth):
        inputs.append(h)
        a = stack.weights[layer] @ h + stack.biases[layer]
        t = np.tanh(a) if stack.nonlinearity == TANH else a
        activations.append(t)
        h = t
        if inject and layer in stack.inject_layers:
            h = h + stack.projection(layer, m)
    return h, inputs, activations


def forward(
    stack: ProbeStack, h0: np.ndarray, m: MetaVector | np.ndarray, inject: bool = True
) -> np.ndarray:
    """h <- Block(h); h <- h + g(m) at each injection layer when enabled."""
    mvec = m.array if isinstance(m, MetaVector) else np.asarray(m, dtype=np.float64)
    out, _, _ = _forward_trace(stack, h0, mvec, inject)
    return out


@dataclass(frozen=True)
class StackGradients:
    weights: np.ndarray
    biases: np.ndarray
    projection_weight: np.ndarray
    projection_bias: np.ndarray
    loss: float


def loss_and_gradients(
    stack: ProbeStack, h0: np.ndarray, m: MetaVector | np.ndarray, inject: bool = True
) -> StackGradients:
    """Sum-of-squares loss on the output and its analytic parameter gradients."""
    mvec = m.array if isinstance(m, MetaVector) else np.asarray(m, dtype=np.float64)
    out, inputs, activations = _forward_trace(stack, h0, mvec, inject)
    loss = float(np.sum(out * out))

    d_weights = np.zeros_like(stack.weights)
    d_biases = np.zeros_like(stack.biases)
    d_pw = np.zeros_like(stack.projection_weight)
    d_pb = np.zeros_like(stack.projection_bias)

    delta = 2.0 * out  # dL/dh_L
    for layer in range(stack.depth - 1, -1, -1):
        if inject and layer in stack.inject_layers:
            if stack.per_layer_projection:
                d_pw[layer] += np.outer(delta, mvec)
                d_pb[layer] += delta
            else:
                d_pw += np.outer(delta, mvec)
                d_pb += delta
        if stack.nonlinearity == TANH:
            delta_a = delta * (1.0 - activations[layer] ** 2)
        else:
            delta_a = delta
        d_weights[layer] = np.outer(delta_a, inputs[layer])
        d_biases[layer] = delta_a
        delta = stack.weights[layer].T @ delta_a

    grads = StackGradients(
        weights=d_weights, biases=d_biases,
        projection_weight=d_pw, projection_bias=d_pb, loss=loss,
    )
    for arr in (d_weights, d_biases, d_pw, d_pb):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteGradient("analytic gradient is not finite")
    return grads


def grad_check(
    stack: ProbeStack,
    h0: np.ndarray,
    m: MetaVector | np.ndarray,
    eps: float = 1e-5,
    inject: bool = True,
) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if not (1e-7 <= eps <= 1e-3):
        raise DomainError(f"eps must lie in [1e-7, 1e-3], got {eps}")
    mvec = m.array if isinstance(m, MetaVector) else np.asarray(m, dtype=np.float64)
    analytic = loss_and_gradients(stack, h0, mvec, inject)
    worst = 0.0
    for name in ("weights", "biases", "projection_weight", "projection_bias"):
        value = np.array(getattr(stack, name))  # perturbed one entry at a time
        flat_value = value.reshape(-1)
        flat_grad = getattr(analytic, name).reshape(-1)
        for idx in range(flat_value.size):
            original = flat_value[idx]
            losses = []
            for perturbed in (original + eps, original - eps):
                flat_value[idx] = perturbed
                out = forward(replace(stack, **{name: value}), h0, mvec, inject)
                losses.append(float(np.sum(out * out)))
            flat_value[idx] = original
            numeric = (losses[0] - losses[1]) / (2.0 * eps)
            if not (math.isfinite(numeric) and math.isfinite(flat_grad[idx])):
                raise NonFiniteGradient("finite-difference gradient is not finite")
            denom = max(abs(flat_grad[idx]), abs(numeric), 1e-12)
            worst = max(worst, abs(flat_grad[idx] - numeric) / denom)
    return worst


# --- probe configuration --------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    depth: Annotated[int, Positive] = 4
    hidden_dim: Annotated[int, Positive] = 8
    inject_layers: tuple[int, ...] | None = None
    nonlinearity: str = TANH
    per_layer_projection: bool = False

    @classmethod
    def from_file(cls, path: Path) -> "ProbeConfig":
        return decode(cls, formats.read_json(path), f"{path}: probe", ConfigInvalid)

    def build(self, seed: int) -> ProbeStack:
        return random_stack(seed=seed, **vars(self))
