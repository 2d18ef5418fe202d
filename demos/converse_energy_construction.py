"""Build a certified energy function directly from simulated excursions.

For a system known (or believed) to contract, a family of energy functions
can be manufactured without guessing a formula: integrate every disturbance
in a chosen ensemble from the probed state, track the exponentially weighted
worst output excursion, clamp at 1/q, and take the best over the ensemble.
The construction is sandwiched from below by its own q-clamped reading at the
probe itself, grows with q, and inherits a decay estimate along solutions.

This demo uses an uncertain contraction whose members all decay at rate >= 1
under constant disturbances, so every quantity has a closed form to compare
against:  U_q(t, x) = max(0, |x(0)| - 1/q).

Run:  python3 demos/converse_energy_construction.py
"""

import math

import numpy as np

from rfdestab import (
    IntegrateOpts,
    RfdeSystem,
    SignalSpec,
    constant_signal,
    converse_functional_uq,
    identity,
    integrate,
    linear,
    sample_history,
    sample_signal,
)


def contracting_system() -> RfdeSystem:
    return RfdeSystem(
        delay_r=0.5,
        dim_n=1,
        dynamics=lambda t, seg, u, d: -(1.25 + d[0]) * seg.head,
        output=lambda t, seg: seg.head,
        d_box=np.array([[-0.25, 0.25]]),
        name="uncertain-contraction",
    )


def main() -> None:
    sys_ = contracting_system()
    ensemble = [
        constant_signal(np.array([c]), box=sys_.d_box)
        for c in (-0.25, 0.0, 0.25)
    ]
    opts = IntegrateOpts(step_req=2e-2)
    one = linear(1.0)
    ident = identity()

    rng = np.random.default_rng(5)
    print("q        computed U_q      closed form      gap")
    x = sample_history(rng, sys_.delay_r, sys_.dim_n, 2.0)
    head = abs(float(x.values[-1, 0]))
    for q in (1, 2, 5, 20, 100):
        uq = converse_functional_uq(sys_, q, ident, ident, one, ensemble,
                                    1.0, x, opts)
        exact = max(0.0, head - 1.0 / q)
        print(f"{q:<8d} {uq:<17.10f} {exact:<16.10f} {uq - exact:.2e}")

    # the family is nondecreasing in q and decays along solutions; probe the
    # decay by re-evaluating on the trailing window of one simulated run
    d_sig = sample_signal(SignalSpec(sys_.d_box, 4.0, 1.0, seed=11))
    traj = integrate(sys_, 0.0, x, None, d_sig, 4.0, IntegrateOpts(step_req=1e-2))
    q = 20
    print(f"\ndecay of U_{q} along one run (closed form would give rate 1):")
    base = converse_functional_uq(sys_, q, ident, ident, one, ensemble,
                                  0.5, traj.history(0.5), opts)
    for h in (0.5, 1.0, 2.0):
        later = converse_functional_uq(sys_, q, ident, ident, one, ensemble,
                                       0.5 + h, traj.history(0.5 + h), opts)
        print(f"  U(t+{h:.1f}) / U(t) = {later / base:.4f}   "
              f"(exp(-{h:.1f}) = {math.exp(-h):.4f})")


if __name__ == "__main__":
    main()
