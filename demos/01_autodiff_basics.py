"""A tour of the reverse-mode autodiff core.

The whole package is differentiated by one mechanism: a Tape that records
each primitive as it runs, and a backward() that replays the records in
reverse.  This script builds a tiny computation by hand, inspects the
gradients, and cross-checks one of them against finite differences.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from dvpt import tensor as T
from dvpt.tensor import Tape, Tensor, backward

rng = np.random.default_rng(0)

# --- a computation: loss = sum(gelu(x @ w) * mask) -----------------------
x = Tensor(rng.normal(size=(2, 3)), requires_grad=True, name="x")
w = Tensor(rng.normal(size=(3, 4)), requires_grad=True, name="w")
mask = Tensor(rng.normal(size=(2, 4)))  # no requires_grad: a constant

with Tape() as tape:
    hidden = T.gelu(T.matmul(x, w))
    loss = T.tsum(T.mul(hidden, mask))

print(f"recorded {len(tape)} primitive operations on the tape")
print(f"loss = {loss.item():+.6f}")

backward(loss, tape)
print(f"x.grad:\n{x.grad}")
print(f"mask.grad is {mask.grad}  (constants receive no gradient)")
print(f"hidden.grad is {hidden.grad}  (intermediates pass their gradient on and keep none)")

# --- cross-check dloss/dw[0,0] against central finite differences --------
step = 1e-6


def loss_at(w00):
    w_mod = w.data.copy()
    w_mod[0, 0] = w00
    g = T.gelu(Tensor(x.data @ w_mod)).data  # forward only, no tape active
    return float((g * mask.data).sum())


fd = (loss_at(w.data[0, 0] + step) - loss_at(w.data[0, 0] - step)) / (2 * step)
print(f"analytic dloss/dw[0,0] = {w.grad[0, 0]:+.8f}")
print(f"finite-difference      = {fd:+.8f}")

# --- gradients accumulate; zero them between steps -----------------------
first = x.grad.copy()
backward(loss, tape)
print(f"after a second backward pass x.grad doubled exactly: "
      f"{np.array_equal(x.grad, 2 * first)}")

# --- everything off-tape is plain inference ------------------------------
y = T.softmax(Tensor(np.array([1.0, 2.0, 3.0])), axis=-1)
print(f"softmax([1,2,3]) = {y.data}  (computed without any tape)")
