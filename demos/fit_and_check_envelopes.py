"""Build two-parameter decay envelopes and check trajectories against them.

Capability tour:
  * turn a decay-rate function into a decay envelope by integrating the
    scalar flow  y' = -rate(y)  — two rates with known closed forms are
    compared against those forms,
  * fit a tabulated envelope from an ensemble of simulated runs of an
    uncertain contracting system (the fit majorizes every observed run by
    construction and is monotone the right way in both arguments),
  * check a fresh batch of runs against the fitted envelope,
  * tighten the envelope artificially and watch the check fail with a
    witness (run index, time, observed vs allowed).

Run:  python3 demos/fit_and_check_envelopes.py
"""

import math

import numpy as np

from rfdestab import (
    IntegrateOpts,
    KlFn,
    RfdeSystem,
    SignalSpec,
    constant,
    fit_kl_envelope,
    integrate,
    kl_from_rate,
    linear,
    power,
    sample_history,
    sample_signal,
    verify_ios_envelope,
)


def contracting_system() -> RfdeSystem:
    """x'(t) = -(1.25 + d(t)) x(t - 0.5): contraction rate at least 1."""
    return RfdeSystem(
        delay_r=0.5,
        dim_n=1,
        dynamics=lambda t, seg, u, d: -(1.25 + d[0]) * seg.head,
        output=lambda t, seg: seg.head,
        d_box=np.array([[-0.25, 0.25]]),
        name="uncertain-contraction",
    )


def ensemble(sys_, count, norm_bound, horizon, seed):
    rng = np.random.default_rng(seed)
    opts = IntegrateOpts(step_req=5e-3)
    out = []
    for _ in range(count):
        x0 = sample_history(rng, sys_.delay_r, sys_.dim_n, norm_bound)
        d_sig = sample_signal(
            SignalSpec(sys_.d_box, horizon, 1.0, seed=int(rng.integers(2 ** 32)))
        )
        out.append(integrate(sys_, 0.0, x0, None, d_sig, horizon, opts))
    return out


def main() -> None:
    # closed forms: rate(s) = s gives s*exp(-t); rate(s) = s^2 gives s/(1+st)
    sig_lin = kl_from_rate(linear(1.0))
    sig_quad = kl_from_rate(power(2.0))
    gap_lin = max(abs(sig_lin(s, t) - s * math.exp(-t))
                  for s in (0.1, 1.0, 3.0) for t in (0.0, 0.7, 2.5))
    gap_quad = max(abs(sig_quad(s, t) - s / (1.0 + s * t))
                   for s in (0.1, 1.0, 3.0) for t in (0.0, 0.7, 2.5))
    print(f"rate-flow envelopes vs closed forms: {gap_lin:.2e}, {gap_quad:.2e}")

    one = constant(1.0)
    sys_ = contracting_system()
    fit_runs = ensemble(sys_, 24, 2.0, 6.0, seed=0)
    sigma = fit_kl_envelope(fit_runs, one, bins=4)
    print(f"fitted envelope from 24 runs: sigma(2, 0) = {sigma(2.0, 0.0):.4f}, "
          f"sigma(2, 3) = {sigma(2.0, 3.0):.4f}, sigma(2, 6) = {sigma(2.0, 6.0):.4f}")

    # an envelope fitted from finitely many runs is only an empirical
    # majorant: a fresh batch can undercut it, and the check reports exactly
    # where; the runs have no input, so the input-to-output check's gain
    # term is zero and it checks the decay envelope alone
    fresh = ensemble(sys_, 12, 1.8, 6.0, seed=99)
    check = verify_ios_envelope(fresh, sigma, one, one, one)
    print(f"12 fresh runs vs 5%-inflated fit: {check.verdict} "
          f"(worst slack {min(check.slacks):.3e})")
    if check.witness is not None:
        i, t_w, observed, allowed = check.witness
        print(f"  near miss: run {i} at t={t_w:.3f}, observed {observed:.4f} "
              f"vs allowed {allowed:.4f}")

    # more inflation (or more fit members) restores domination
    sigma_wide = fit_kl_envelope(fit_runs, one, bins=4, inflate=1.3)
    check_wide = verify_ios_envelope(fresh, sigma_wide, one, one, one)
    print(f"same runs vs 30%-inflated fit: {check_wide.verdict} "
          f"(worst slack {min(check_wide.slacks):.3e})")

    # an envelope that decays faster than the system cannot hold
    too_fast = KlFn(fn=lambda s, t: s * math.exp(-4.0 * t), name="too-fast")
    bad = verify_ios_envelope(fresh, too_fast, one, one, one)
    i, t_w, observed, allowed = bad.witness
    print(f"over-tight envelope: {bad.verdict} — run {i} at t={t_w:.3f} "
          f"observed {observed:.4f} > allowed {allowed:.4f}")


if __name__ == "__main__":
    main()
