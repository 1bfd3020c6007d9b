"""A tour of the reverse-mode autodiff core.

Builds a tiny computation by hand, backpropagates through it, and
checks one gradient against central finite differences — the same
verification style the test suite applies to the full model.

Run: python3 demos/01_autodiff_basics.py
"""

import numpy as np

from dialdistill import tensor as T


def main():
    rng = np.random.default_rng(0)

    # Everything below runs in float64 so the finite-difference check
    # is meaningful; training normally uses the float32 default.
    with T.precision("double"):
        x = T.Tensor(rng.normal(size=(4, 3)))
        w = T.Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        b = T.Tensor(np.zeros(5), requires_grad=True)
        w_out = T.Tensor(rng.normal(size=(5, 6)), requires_grad=True)
        b_out = T.Tensor(np.zeros(6), requires_grad=True)

        def loss_value():
            h = T.affine(x, w, b, relu=True)  # relu applied in place on the product
            logp = T.head(h, w_out, b_out)  # log-softmax of a product: finite even where a probability underflows
            return T.mul(T.tsum(logp), -1.0 / logp.data.size)

        loss = loss_value()
        T.backward(loss)
        print(f"loss = {float(loss.data):.6f}")
        print(f"grad shapes: w {w.grad.shape}, b {b.grad.shape}")

        # Central differences on one weight entry.
        step = 1e-6
        keep = w.data[1, 2]
        w.data[1, 2] = keep + step
        hi = float(loss_value().data)
        w.data[1, 2] = keep - step
        lo = float(loss_value().data)
        w.data[1, 2] = keep
        numeric = (hi - lo) / (2 * step)
        analytic = float(w.grad[1, 2])
        print(f"dL/dw[1,2]: analytic {analytic:+.8f}, numeric {numeric:+.8f}, "
              f"abs diff {abs(analytic - numeric):.2e}")


if __name__ == "__main__":
    main()
