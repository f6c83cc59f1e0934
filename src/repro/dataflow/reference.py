"""Row-wise reference implementation of the 1-D convolution dataflow.

The paper decomposes every 2-D convolution of the three training steps into
1-D row convolutions (Fig. 6):

* **Forward / SRC** — one output row is the sum of ``K`` 1-D convolutions of
  (kernel row, input row) pairs, accumulated over input channels.
* **GTA / MSRC** — one input-gradient row is the sum of 1-D convolutions of
  (reversed kernel row, output-gradient row) pairs, accumulated over output
  channels; positions masked off by the following ReLU can be skipped.
* **GTW / OSRC** — one kernel row of ``dW`` is the length-``K`` correlation of
  an input row with an output-gradient row, accumulated over output rows.

These functions execute the decomposition numerically and provide the ground
truth the PE model (:mod:`repro.arch.pe`) is checked against.  They are
implemented with vectorized numpy window/gather arithmetic
(``sliding_window_view`` plus ``einsum`` contractions and K x K strided
scatter-adds); the per-operand loop semantics live in the PE model.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.nn.functional import conv_output_size
from repro.utils.validation import check_group_split


def _check_grouped_weight(weight: np.ndarray, channels: int, groups: int) -> tuple[int, int]:
    """Validate a grouped weight tensor (F, C/groups, K, K); returns (C/g, F/g)."""
    group_in, group_out = check_group_split(channels, weight.shape[0], groups)
    if weight.shape[1] != group_in:
        raise ValueError(
            f"weight shape {weight.shape} has {weight.shape[1]} channel slices; "
            f"groups={groups} over {channels} input channels expects {group_in}"
        )
    return group_in, group_out


def _pad_input(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two spatial dimensions of a (C, H, W) tensor."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding)), mode="constant")


def _row_windows(x_padded: np.ndarray, kernel: int, stride: int, out_w: int) -> np.ndarray:
    """Strided windows ``w[c, ih, ow, kw] = x_padded[c, ih, ow * stride + kw]``."""
    windows = sliding_window_view(x_padded, kernel, axis=2)
    return windows[:, :, ::stride, :][:, :, :out_w]


def row_convolution(
    input_row: np.ndarray, kernel_row: np.ndarray, stride: int, out_len: int
) -> np.ndarray:
    """The basic 1-D (strided, valid) convolution used by SRC operations.

    ``out[ow] = sum_k input_row[ow * stride + k] * kernel_row[k]``
    """
    input_row = np.asarray(input_row, dtype=np.float64)
    kernel_row = np.asarray(kernel_row, dtype=np.float64)
    windows = sliding_window_view(input_row, kernel_row.size)[::stride][:out_len]
    if windows.shape[0] != out_len:
        raise ValueError(
            f"out_len {out_len} inconsistent with input length {input_row.size}, "
            f"kernel {kernel_row.size}, stride {stride}"
        )
    return windows @ kernel_row


def forward_by_rows(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int,
    padding: int,
    groups: int = 1,
) -> np.ndarray:
    """Forward convolution of a single sample via SRC row operations.

    Parameters
    ----------
    x:
        Input activations of shape (C, H, W).
    weight:
        Weights of shape (F, C/groups, K, K).
    bias:
        Optional bias of shape (F,).
    groups:
        Channel groups; output channel ``f`` only reads the input channels of
        group ``f // (F / groups)``.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    channels, height, width = x.shape
    out_channels, _, kernel, _ = weight.shape
    group_in, group_out = _check_grouped_weight(weight, channels, groups)
    out_h = conv_output_size(height, kernel, stride, padding)
    out_w = conv_output_size(width, kernel, stride, padding)
    x_padded = _pad_input(x, padding)

    # windows[c, ih, ow, kw] = x_padded[c, ih, ow*stride + kw]
    windows = _row_windows(x_padded, kernel, stride, out_w)
    # row_index[oh, kr] = the padded input row feeding output row oh via
    # kernel row kr — gathering it turns the SRC accumulation over
    # (c_local, kr, kw) into one einsum contraction per group.
    row_index = stride * np.arange(out_h)[:, None] + np.arange(kernel)[None, :]

    out = np.zeros((out_channels, out_h, out_w), dtype=np.float64)
    for g in range(groups):
        win_g = windows[g * group_in : (g + 1) * group_in][:, row_index]
        w_g = weight[g * group_out : (g + 1) * group_out]
        # win_g: (C/g, OH, KR, OW, KW); w_g: (F/g, C/g, KR, KW)
        out[g * group_out : (g + 1) * group_out] = np.einsum(
            "chkwj,fckj->fhw", win_g, w_g, optimize=True
        )
    if bias is not None:
        out += bias[:, None, None]
    return out


def gta_by_rows(
    grad_out: np.ndarray,
    weight: np.ndarray,
    in_shape: tuple[int, int, int],
    stride: int,
    padding: int,
    mask: np.ndarray | None = None,
    groups: int = 1,
) -> np.ndarray:
    """GTA step of a single sample via MSRC row operations.

    Computes ``dI[c] = sum_f dO[f] (*) W+_{f,c}`` where ``W+`` is the kernel
    rotated by 180 degrees; for grouped layers the sum only runs over the
    output channels of ``c``'s group.  When ``mask`` (same shape as the
    input) is given, masked-off positions are skipped entirely — they stay
    exactly zero, which is safe because the following ReLU backward would
    zero them anyway.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    channels, height, width = in_shape
    out_channels, _, kernel, _ = weight.shape
    group_in, group_out = _check_grouped_weight(weight, channels, groups)
    out_h, out_w = grad_out.shape[1], grad_out.shape[2]
    padded_h, padded_w = height + 2 * padding, width + 2 * padding

    grad_padded = np.zeros((channels, padded_h, padded_w), dtype=np.float64)
    h_span = (out_h - 1) * stride + 1
    w_span = (out_w - 1) * stride + 1
    for g in range(groups):
        grad_g = grad_out[g * group_out : (g + 1) * group_out]
        w_g = weight[g * group_out : (g + 1) * group_out]
        # contrib[c, oh, kr, ow, kw] = sum_f dO[f, oh, ow] * W[f, c, kr, kw]:
        # the value each MSRC scatter adds at dI[c, oh*stride+kr, ow*stride+kw].
        contrib = np.einsum("fhw,fckj->chkwj", grad_g, w_g, optimize=True)
        target = grad_padded[g * group_in : (g + 1) * group_in]
        # K x K strided slice-adds replace the per-value Python scatter; the
        # (kr, kw) shifts overlap for stride < K, so each shift is a separate
        # accumulate over disjoint strided positions.
        for kr in range(kernel):
            for kw in range(kernel):
                target[:, kr : kr + h_span : stride, kw : kw + w_span : stride] += (
                    contrib[:, :, kr, :, kw]
                )

    grad_input = grad_padded[:, padding : padding + height, padding : padding + width]
    if mask is not None:
        if mask.shape != grad_input.shape:
            raise ValueError(f"mask shape {mask.shape} != input shape {grad_input.shape}")
        grad_input = grad_input * mask
    return grad_input


def gtw_by_rows(
    grad_out: np.ndarray,
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    groups: int = 1,
) -> np.ndarray:
    """GTW step of a single sample via OSRC row operations.

    Computes ``dW[f, c, kr, kw] = sum_{oh, ow} dO[f, oh, ow] *
    I[c, oh*stride + kr - padding, ow*stride + kw - padding]`` with ``c``
    running over the input channels of ``f``'s group, returning the grouped
    weight-gradient tensor of shape (F, C/groups, K, K).  Each (f, c, kr, oh)
    pair is one OSRC operation whose K results live in the PE's scratchpad
    (Reg-2) for the duration of the row.
    """
    grad_out = np.asarray(grad_out, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    out_channels, out_h, out_w = grad_out.shape
    channels = x.shape[0]
    group_in, group_out = check_group_split(channels, out_channels, groups)
    x_padded = _pad_input(x, padding)

    windows = _row_windows(x_padded, kernel, stride, out_w)
    row_index = stride * np.arange(out_h)[:, None] + np.arange(kernel)[None, :]

    grad_weight = np.zeros((out_channels, group_in, kernel, kernel), dtype=np.float64)
    for g in range(groups):
        win_g = windows[g * group_in : (g + 1) * group_in][:, row_index]
        grad_g = grad_out[g * group_out : (g + 1) * group_out]
        # win_g: (C/g, OH, KR, OW, KW); grad_g: (F/g, OH, OW)
        grad_weight[g * group_out : (g + 1) * group_out] = np.einsum(
            "fhw,chkwj->fckj", grad_g, win_g, optimize=True
        )
    return grad_weight


def bias_gradient_by_rows(grad_out: np.ndarray) -> np.ndarray:
    """Bias gradients: per-channel sum of the output activation gradients.

    The paper computes these for free by accumulating gradients inside the
    PPU while the GTA step streams them through.
    """
    return grad_out.sum(axis=(1, 2))
