"""Integrate a delay system under disturbance signals and read it densely.

Capability tour:
  * define a system whose right-hand side reads the trailing state window,
  * integrate it with the fixed-step marcher (the step is clamped so a whole
    number of steps spans the delay),
  * evaluate the solution between nodes through the dense cubic readout,
  * watch the blow-up guard truncate an unstable run,
  * export the trajectory as CSV.

Run:  python3 demos/simulate_delayed_system.py
"""

import numpy as np

from rfdestab import (
    HistorySegment,
    IntegrateOpts,
    RfdeSystem,
    SignalSpec,
    integrate,
    sample_signal,
    trajectory_to_csv,
)


def delayed_feedback(gain: float) -> RfdeSystem:
    """x'(t) = gain * x(t - 1) + 0.3 d(t): stable for gain = -1 on short runs."""
    return RfdeSystem(
        delay_r=1.0,
        dim_n=1,
        dynamics=lambda t, seg, u, d: gain * seg.delayed + 0.3 * d,
        output=lambda t, seg: seg.head,
        d_box=np.array([[-1.0, 1.0]]),
        name=f"delayed-feedback(gain={gain})",
    )


def main() -> None:
    sys_stable = delayed_feedback(-1.0)
    x0 = HistorySegment.constant(1.0, [1.0])
    d_sig = sample_signal(SignalSpec(sys_stable.d_box, 12.0, 1.5, seed=3))

    traj = integrate(sys_stable, 0.0, x0, None, d_sig, 12.0,
                     IntegrateOpts(step_req=1e-2))
    print(f"stable run: status={traj.status}, {traj.times.size} nodes on "
          f"[0, {traj.t_end:g}]")
    for t in (0.0, 1.234, 5.678, 12.0):
        note = "   (dense readout between nodes)" if t == 1.234 else ""
        print(f"  x({t:>6.3f}) = {traj.state(t)[0]: .6f}{note}")

    window = traj.history(12.0)
    print(f"final window: sup |x| over [11, 12] = "
          f"{np.abs(window.values).max():.6f}")

    # positive delayed feedback with a unit disturbance diverges; the marcher
    # reports the first node whose window norm crossed the guard
    sys_unstable = delayed_feedback(+1.5)
    boom = integrate(sys_unstable, 0.0, x0, None, None, 60.0,
                     IntegrateOpts(step_req=1e-2, blowup_norm=1e6))
    print(f"unstable run: status={boom.status}, stopped at t={boom.t_event:g} "
          f"(guard 1e6)")

    csv = trajectory_to_csv(traj, list(traj.outputs))
    print("csv head:")
    for line in csv.splitlines()[:3]:
        print("  " + line)


if __name__ == "__main__":
    main()
