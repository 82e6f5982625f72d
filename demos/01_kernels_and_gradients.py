"""Walk through the dense kernels: conv2d, fc, and their gradients.

Shows that the im2col-backed convolution agrees with a naive loop, and
that the analytic backward pass agrees with central finite differences.
"""
import numpy as np

from sgconv import ops

rng = np.random.default_rng(0)

# -- two small convolutions, checked against explicit loops ----------------
# ops._im2col unfolds output rows of at most UNFOLD_GATHER_WIDTH values by one
# gather through a cached index, and wider rows by k*k strided copies from a
# zero-padded copy: one narrow unpadded case and one wide padded case.
def naive_conv(x, w, padding):
    xp = np.zeros((x.shape[1], x.shape[2] + 2 * padding, x.shape[3] + 2 * padding),
                  dtype=x.dtype)
    xp[:, padding:padding + x.shape[2], padding:padding + x.shape[3]] = x[0]
    k = w.shape[2]
    out = np.zeros((1, w.shape[0], xp.shape[1] - k + 1, xp.shape[2] - k + 1), dtype=x.dtype)
    for f in range(w.shape[0]):
        for i in range(out.shape[2]):
            for j in range(out.shape[3]):
                out[0, f, i, j] = (xp[:, i:i + k, j:j + k] * w[f]).sum()
    return out


w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
for size, padding in ((5, 0), (12, 1)):
    x = rng.standard_normal((1, 2, size, size)).astype(np.float32)
    out = ops.conv2d_forward(x, w, padding=padding)
    path = "gather" if out.shape[3] <= ops.UNFOLD_GATHER_WIDTH else "tap copies"
    print(f"conv2d: input {x.shape} * weights {w.shape}, padding {padding} -> "
          f"output {out.shape} (unfold: {path})")
    deviation = np.abs(out - naive_conv(x, w, padding)).max()
    print(f"  max |im2col - naive loop| = {deviation:.2e}")
    assert deviation < 1e-4  # float32 rounding only

# -- fully connected is the same algebra with k = 1 -------------------------
xf = rng.standard_normal((4, 6)).astype(np.float32)
wf = rng.standard_normal((3, 6)).astype(np.float32)
print(f"fc: {xf.shape} @ {wf.shape}.T -> {ops.fc_forward(xf, wf).shape}")

# -- gradients vs central finite differences --------------------------------
x64 = rng.standard_normal((1, 2, 4, 4))
w64 = rng.standard_normal((2, 2, 3, 3))
proj = rng.standard_normal((1, 2, 2, 2))   # loss = sum(proj * conv(x))

dx, dw, _ = ops.conv2d_backward(proj, x64, w64)

h = 1e-5
fd = np.zeros_like(w64)
for idx in np.ndindex(w64.shape):
    w64[idx] += h
    up = (proj * ops.conv2d_forward(x64, w64)).sum()
    w64[idx] -= 2 * h
    down = (proj * ops.conv2d_forward(x64, w64)).sum()
    w64[idx] += h
    fd[idx] = (up - down) / (2 * h)
print(f"conv backward: max |analytic dW - finite diff| = {np.abs(dw - fd).max():.2e}")
