"""Support vector machine training (paper §5.1).

A parallel SMO in the style of Cao et al., as the paper describes:
every dpCore owns a slice of the training samples and its slice of
the error cache; each iteration the cores compute their local maximal
violating pair, ship it to a designated master core over the ATE, the
master selects the global pair and computes the update, and the delta
is broadcast back so every core updates its error cache (two kernel
rows' worth of dot products per sample — the bandwidth-heavy part the
DMS feeds).

Arithmetic is Q10.22 fixed point end to end ("all datasets were
converted to 10.22 software fixed point"); the same trainer also runs
in float mode as the reference, which is how the paper's observation
that "the DPU converges in 35% fewer iterations, with no loss in
classification accuracy" is reproduced and tested — fixed-point error
rounding meets the KKT tolerance earlier.

The x86 baseline models LIBSVM with OpenMP (the paper's comparison,
with empirically tuned parameters): effective aggregate throughput of
a few GFLOP/s on kernel evaluations plus per-iteration serial
overhead, calibrated so published LIBSVM behaviour on ~100 K-sample
dense data is matched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..baseline.xeon import XeonModel
from ..core.dpu import DPU
from ..fixedpoint import FXP_ONE, from_fixed, to_fixed
from ..runtime.task import static_partition
from ..workloads.higgs import HiggsLike
from .sql.engine import DpuOpResult, XeonOpResult
from .streaming import load

__all__ = [
    "SmoTrainer",
    "SvmModel",
    "build_exp_lut",
    "dpu_svm_train",
    "fxp_exp_neg",
    "xeon_svm_train",
]


# Fixed-point exp(-x) lookup table: the dpCore has no FPU, so the RBF
# kernel's exponential is a DMEM-resident LUT indexed by the Q10.22
# argument (1024 entries over [0, 16); anything larger underflows to
# 0). 16 KB of float math replaced by one load — the standard trick.
_EXP_LUT_ENTRIES = 1024
_EXP_LUT_MAX = 16.0


def build_exp_lut(entries: int = _EXP_LUT_ENTRIES,
                  max_arg: float = _EXP_LUT_MAX) -> np.ndarray:
    """Q10.22 table of exp(-x) for x in [0, max_arg)."""
    xs = np.arange(entries) * (max_arg / entries)
    return to_fixed(np.exp(-xs))


_EXP_LUT = build_exp_lut()


def fxp_exp_neg(args_fixed: np.ndarray) -> np.ndarray:
    """exp(-x) for Q10.22 x >= 0 via the LUT (vectorized)."""
    scale = _EXP_LUT_ENTRIES / _EXP_LUT_MAX
    index = (args_fixed.astype(np.float64) / FXP_ONE * scale).astype(np.int64)
    index = np.clip(index, 0, _EXP_LUT_ENTRIES - 1)
    out = _EXP_LUT[index]
    out[args_fixed >= to_fixed(_EXP_LUT_MAX)] = 0
    return out

# dpCore cost of one fused multiply-accumulate step of a fixed-point
# dot product: two loads (dual-issued with ALU ops) + the iterative
# multiply (~6 cycles for Q10.22 operands) + shift/accumulate.
_DOT_CYCLES_PER_FEATURE = 8.0
_SELECT_CYCLES_PER_SAMPLE = 4.0  # compare/track min and max of f
_UPDATE_CYCLES = 400.0  # master's pair update (two dots + clipping)
# LIBSVM w/ OpenMP on the Xeon: effective kernel-evaluation rate and
# per-iteration serial overhead (working-set selection, shrinking).
_LIBSVM_EFFECTIVE_FLOPS = 18e9
_LIBSVM_ITER_OVERHEAD_S = 4e-6


@dataclass
class SvmModel:
    """A trained classifier (linear weights, or support vectors for
    the RBF kernel)."""

    weights: np.ndarray
    bias: float
    iterations: int
    converged: bool
    kernel: str = "linear"
    gamma: float = 0.5
    support_vectors: Optional[np.ndarray] = None
    support_coefficients: Optional[np.ndarray] = None  # alpha_i * y_i

    def decision(self, features: np.ndarray) -> np.ndarray:
        if self.kernel == "linear":
            return features @ self.weights + self.bias
        diffs = (
            features[:, None, :] - self.support_vectors[None, :, :]
        )
        kernels = np.exp(-self.gamma * np.sum(diffs * diffs, axis=2))
        return kernels @ self.support_coefficients + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.where(self.decision(features) >= 0, 1.0, -1.0)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(features) == labels))


class SmoTrainer:
    """Keerthi-style SMO with the maximal-violating-pair rule.

    ``arithmetic="fixed"`` keeps the error cache, alphas and kernel
    products in Q10.22 (stored as int64 numpy arrays); ``"float"`` is
    the double-precision reference. The update formulas are identical,
    so iteration-count differences are purely the arithmetic's doing.
    """

    def __init__(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        C: float = 1.0,
        tolerance: float = 1e-3,
        arithmetic: str = "fixed",
        kernel: str = "linear",
        gamma: float = 0.5,
    ) -> None:
        if arithmetic not in ("fixed", "float"):
            raise ValueError(f"unknown arithmetic {arithmetic!r}")
        if kernel not in ("linear", "rbf"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.arithmetic = arithmetic
        self.kernel = kernel
        self.gamma = float(gamma)
        self.num_samples, self.num_features = features.shape
        self.labels = labels.astype(np.float64)
        self.C_float = float(C)
        self.tol_float = float(tolerance)
        if arithmetic == "fixed":
            self.features = to_fixed(features)  # int64 Q10.22
            self.alphas = np.zeros(self.num_samples, dtype=np.int64)
            self.f = to_fixed(-self.labels)  # f_i = -y_i initially
            self.C = to_fixed(C)
            self.tol = to_fixed(tolerance)
        else:
            self.features = features.astype(np.float64)
            self.alphas = np.zeros(self.num_samples, dtype=np.float64)
            self.f = -self.labels.copy()
            self.C = float(C)
            self.tol = float(tolerance)
        self.bias = 0.0
        self.iterations = 0
        self.converged = False
        # local_extrema is called once per core per iteration but the
        # up/low masks depend only on (labels, alphas, C); cache them
        # until the next alpha update so the distributed trainer does
        # not rebuild them 32 times per iteration.
        self._masks_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- kernel ---------------------------------------------------------

    def kernel_row(self, index: int) -> np.ndarray:
        """K(x_index, x_k) for all k, computed on the fly (§5.1: "The
        DPU version generates kernels on the fly" — no kernel cache).
        """
        row = self.features[index]
        if self.kernel == "linear":
            if self.arithmetic == "fixed":
                products = self.features.astype(np.int64) @ row.astype(np.int64)
                return (products + (1 << 21)) >> 22  # Q20.44 -> Q10.22
            return self.features @ row
        # RBF: exp(-gamma * ||x_i - x_k||^2).
        if self.arithmetic == "fixed":
            diffs = self.features.astype(np.int64) - row.astype(np.int64)
            dist2 = (diffs * diffs).sum(axis=1) >> 22  # Q10.22
            gamma_fixed = to_fixed(self.gamma)
            args = (gamma_fixed * dist2) >> 22
            return fxp_exp_neg(np.maximum(args, 0))
        diffs = self.features - row
        return np.exp(-self.gamma * np.sum(diffs * diffs, axis=1))

    # -- pair selection ----------------------------------------------------

    def _masks(self) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._masks_cache
        if cached is not None:
            return cached
        y = self.labels
        a = self.alphas
        upper = self.C
        i_up = ((y > 0) & (a < upper)) | ((y < 0) & (a > 0))
        i_low = ((y > 0) & (a > 0)) | ((y < 0) & (a < upper))
        self._masks_cache = (i_up, i_low)
        return i_up, i_low

    def local_extrema(self, lo: int, hi: int):
        """(f_min, idx_min, f_max, idx_max) over [lo, hi) — what one
        dpCore computes over its slice each iteration."""
        i_up, i_low = self._masks()
        window = slice(lo, hi)
        f = self.f[window]
        up_mask = i_up[window]
        low_mask = i_low[window]
        best_up = (None, None)
        best_low = (None, None)
        if up_mask.any():
            candidates = np.nonzero(up_mask)[0]
            pick = candidates[np.argmin(f[candidates])]
            best_up = (self.f[lo + pick], lo + int(pick))
        if low_mask.any():
            candidates = np.nonzero(low_mask)[0]
            pick = candidates[np.argmax(f[candidates])]
            best_low = (self.f[lo + pick], lo + int(pick))
        return best_up, best_low

    def select_pair(self) -> Optional[Tuple[int, int]]:
        """Global maximal violating pair, or None when KKT-converged."""
        best_up, best_low = self.local_extrema(0, self.num_samples)
        return self._resolve_pair(best_up, best_low)

    def _resolve_pair(self, best_up, best_low) -> Optional[Tuple[int, int]]:
        if best_up[1] is None or best_low[1] is None:
            return None
        two_tol = 2 * self.tol
        if best_low[0] - best_up[0] <= two_tol:
            return None
        return best_up[1], best_low[1]

    # -- update -------------------------------------------------------------

    def apply_update(self, i: int, j: int):
        """Optimize the (i, j) pair; returns (delta, K_i row, K_j row)
        where delta is the (alpha*y) transfer from j's side to i's."""
        k_i = self.kernel_row(i)
        k_j = self.kernel_row(j)
        if self.arithmetic == "fixed":
            eta = int(k_i[i]) + int(k_j[j]) - 2 * int(k_i[j])
            eta = max(eta, 1)  # Q10.22 epsilon floor
            gap = int(self.f[j]) - int(self.f[i])
            delta = (gap << 22) // eta  # Q10.22 divide
        else:
            eta = float(k_i[i]) + float(k_j[j]) - 2.0 * float(k_i[j])
            eta = max(eta, 1e-12)
            delta = (float(self.f[j]) - float(self.f[i])) / eta
        # Clip so both alphas stay in [0, C].
        y_i, y_j = self.labels[i], self.labels[j]
        lo, hi = self._delta_bounds(i, y_i, j, y_j)
        if self.arithmetic == "fixed":
            delta = max(int(lo), min(int(hi), int(delta)))
            self.alphas[i] += int(y_i) * delta
            self.alphas[j] -= int(y_j) * delta
        else:
            delta = max(lo, min(hi, delta))
            self.alphas[i] += y_i * delta
            self.alphas[j] -= y_j * delta
        self._masks_cache = None
        return delta, k_i, k_j

    def _delta_bounds(self, i, y_i, j, y_j):
        zero = 0 if self.arithmetic == "fixed" else 0.0
        a_i, a_j, C = self.alphas[i], self.alphas[j], self.C
        if y_i > 0:
            lo_i, hi_i = -a_i, C - a_i
        else:
            lo_i, hi_i = a_i - C, a_i
        if y_j > 0:
            lo_j, hi_j = a_j - C, a_j
        else:
            lo_j, hi_j = -a_j, C - a_j
        return max(lo_i, lo_j, zero), min(hi_i, hi_j)

    def update_errors(self, delta, k_i, k_j, lo: int, hi: int) -> None:
        """f_k += delta * (K_ik - K_jk) over one core's slice."""
        window = slice(lo, hi)
        if self.arithmetic == "fixed":
            change = (int(delta) * (k_i[window] - k_j[window])) >> 22
            self.f[window] = self.f[window] + change
        else:
            self.f[window] = self.f[window] + delta * (
                k_i[window] - k_j[window]
            )

    def finalize(self) -> SvmModel:
        """Extract the model: linear weights, or support vectors."""
        if self.arithmetic == "fixed":
            alphas = from_fixed(self.alphas)
            features = from_fixed(self.features)
        else:
            alphas = self.alphas
            features = self.features
        weights = (alphas * self.labels) @ features
        # b from the KKT midpoint of the final up/low extrema.
        best_up, best_low = self.local_extrema(0, self.num_samples)
        f_up = from_fixed(best_up[0]) if (
            self.arithmetic == "fixed" and best_up[0] is not None
        ) else (best_up[0] or 0.0)
        f_low = from_fixed(best_low[0]) if (
            self.arithmetic == "fixed" and best_low[0] is not None
        ) else (best_low[0] or 0.0)
        bias = -(float(f_up) + float(f_low)) / 2.0
        support = np.asarray(alphas) > 1e-9
        return SvmModel(
            weights=weights,
            bias=bias,
            iterations=self.iterations,
            converged=self.converged,
            kernel=self.kernel,
            gamma=self.gamma,
            support_vectors=np.asarray(features)[support],
            support_coefficients=(
                np.asarray(alphas)[support] * self.labels[support]
            ),
        )

    # -- reference driver -------------------------------------------------------

    def train(self, max_iterations: int = 20000) -> SvmModel:
        """Run SMO to convergence (the single-machine reference)."""
        for _ in range(max_iterations):
            pair = self.select_pair()
            if pair is None:
                self.converged = True
                break
            i, j = pair
            delta, k_i, k_j = self.apply_update(i, j)
            if delta == 0:
                self.converged = True
                break
            self.update_errors(delta, k_i, k_j, 0, self.num_samples)
            self.iterations += 1
        return self.finalize()


# -- DPU execution ------------------------------------------------------------------


def dpu_svm_train(
    dpu: DPU,
    dataset: HiggsLike,
    C: float = 1.0,
    tolerance: float = 1e-3,
    max_iterations: int = 20000,
    kernel: str = "linear",
    gamma: float = 0.5,
) -> DpuOpResult:
    """Distributed fixed-point SMO across the dpCores.

    Sample slices and error caches are DMEM-resident (or DMS-streamed
    per iteration when a slice exceeds DMEM); pair reduction uses ATE
    remote stores into the master's DMEM; the master broadcasts the
    update over the mailbox.
    """
    trainer = SmoTrainer(
        dataset.features, dataset.labels, C, tolerance, arithmetic="fixed",
        kernel=kernel, gamma=gamma,
    )
    # RBF error updates add a subtract per feature and the exp-LUT
    # lookup per sample on top of the dot-product cost.
    dot_cycles = _DOT_CYCLES_PER_FEATURE + (2.0 if kernel == "rbf" else 0.0)
    n = trainer.num_samples
    num_features = trainer.num_features
    cores = list(dpu.config.core_ids)
    master = cores[0]
    sample_bytes = num_features * 4
    slice_rows = -(-n // len(cores))
    slice_resident = slice_rows * sample_bytes <= 20 * 1024

    # Master-side reduction slots: 4 u64 per core in master's DMEM.
    slot_base = 1024
    features_addr = dpu.store_array(trainer.features.astype(np.int32))

    def kernel(ctx):
        index = cores.index(ctx.core_id)
        lo, hi = static_partition(n, len(cores), index)
        is_master = ctx.core_id == master
        iterations = 0
        # Load the sample slice into DMEM once (resident case).
        if lo < hi and slice_resident:
            yield from load(ctx, features_addr + lo * sample_bytes, 4096,
                            min((hi - lo) * num_features, 65535), 4, 0)
        while True:
            # 1. Local extrema over the slice.
            if lo < hi:
                best_up, best_low = trainer.local_extrema(lo, hi)
                yield from ctx.compute((hi - lo) * _SELECT_CYCLES_PER_SAMPLE)
            else:
                best_up, best_low = (None, None), (None, None)
            # 2. Reduce at the master: pack (f, idx) into ATE stores.
            if not is_master:
                payload = (
                    _pack(best_up), _pack(best_low)
                )
                base = slot_base + index * 16
                address = dpu.address_map.dmem_address(master, base)
                yield from ctx.remote_store(master, address, payload[0])
                yield from ctx.remote_store(master, address + 8, payload[1])
                yield from ctx.mbox_send(master, ("arrived",))
                _src, message = yield from ctx.mbox_receive()
            else:
                for _ in range(len(cores) - 1):
                    yield from ctx.mbox_receive()
                candidates_up = [best_up]
                candidates_low = [best_low]
                for other in range(1, len(cores)):
                    base = slot_base + other * 16
                    candidates_up.append(
                        _unpack(ctx.dmem.read_u64(base))
                    )
                    candidates_low.append(
                        _unpack(ctx.dmem.read_u64(base + 8))
                    )
                best_up = min(
                    (c for c in candidates_up if c[1] is not None),
                    key=lambda c: (c[0], c[1]),
                    default=(None, None),
                )
                best_low = max(
                    (c for c in candidates_low if c[1] is not None),
                    key=lambda c: (c[0], -c[1]),
                    default=(None, None),
                )
                pair = trainer._resolve_pair(best_up, best_low)
                if pair is None or iterations >= max_iterations:
                    trainer.converged = pair is None
                    message = ("stop", None)
                else:
                    i, j = pair
                    delta, k_i, k_j = trainer.apply_update(i, j)
                    yield from ctx.compute(_UPDATE_CYCLES)
                    if delta == 0:
                        trainer.converged = True
                        message = ("stop", None)
                    else:
                        trainer.iterations += 1
                        message = ("update", (delta, k_i, k_j))
                for core in cores:
                    if core != master:
                        yield from ctx.mbox_send(core, message)
            # 3. Apply the update locally.
            if message[0] == "stop":
                break
            delta, k_i, k_j = message[1]
            if lo < hi:
                trainer.update_errors(delta, k_i, k_j, lo, hi)
                # Each sample: dots with the two updated rows (the
                # rows arrive via DMS broadcast, 2 x 112 B).
                yield from ctx.compute(
                    (hi - lo) * 2 * num_features * dot_cycles
                )
            iterations += 1
        return iterations

    launch = dpu.launch(kernel, cores=cores)
    model = trainer.finalize()
    bytes_streamed = trainer.iterations * (
        2 * sample_bytes * len(cores)  # broadcast rows
        + (0 if slice_resident else n * sample_bytes)
    ) + n * sample_bytes
    return DpuOpResult(
        value=model,
        cycles=launch.cycles,
        config=dpu.config,
        bytes_streamed=bytes_streamed,
        detail={
            "iterations": model.iterations,
            "converged": model.converged,
            "resident": slice_resident,
        },
    )


def _pack(extremum) -> int:
    """(f, idx) -> one u64: f (Q10.22, offset-binary 32 bits) | idx."""
    value, index = extremum
    if index is None:
        return (1 << 63) | 0xFFFFFFFF  # sentinel: no candidate
    biased = (int(value) + (1 << 31)) & 0xFFFFFFFF
    return (biased << 32) | (index & 0xFFFFFFFF)


def _unpack(packed: int):
    if packed == ((1 << 63) | 0xFFFFFFFF):
        return (None, None)
    index = packed & 0xFFFFFFFF
    value = (packed >> 32) - (1 << 31)
    return (value, int(index))


def xeon_svm_train(
    model: XeonModel,
    dataset: HiggsLike,
    C: float = 1.0,
    tolerance: float = 1e-3,
    max_iterations: int = 20000,
    kernel: str = "linear",
    gamma: float = 0.5,
) -> XeonOpResult:
    """LIBSVM-with-OpenMP baseline: float SMO reference, timed at the
    calibrated effective kernel-evaluation rate."""
    trainer = SmoTrainer(
        dataset.features, dataset.labels, C, tolerance, arithmetic="float",
        kernel=kernel, gamma=gamma,
    )
    svm = trainer.train(max_iterations)
    n, d = dataset.features.shape
    flops_per_iteration = 2 * n * d * 2  # two kernel rows + error update
    seconds = svm.iterations * (
        flops_per_iteration / _LIBSVM_EFFECTIVE_FLOPS + _LIBSVM_ITER_OVERHEAD_S
    )
    return XeonOpResult(
        value=svm,
        seconds=seconds,
        bytes_streamed=svm.iterations * n * d * 8,
        detail={"iterations": svm.iterations, "converged": svm.converged},
    )
