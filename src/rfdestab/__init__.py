"""Simulation and sampling-based stability certification for uncertain
time-varying delay systems.

The package integrates delay systems whose right-hand side reads the full
trailing state window, numerically evaluates forward Dini derivatives of
energy functionals and pointwise energy functions, falsifies guarded decay
inequalities by randomized sampling, builds and checks two-parameter decay
envelopes, and ships three fully certified benchmark systems plus a batch
command-line front end.
"""

__version__ = "0.1.0"

from .history import (
    HistorySegment,
    clip_to_ball,
    extend,
    history_distance,
    sample_history,
    sup_norm,
)
from .signals import PiecewiseSignal, SignalSpec, constant_signal, sample_signal
from .compfn import (
    ComparisonFn,
    KlFn,
    constant,
    exp_weight,
    fading_sup,
    identity,
    kl_from_rate,
    linear,
    power,
)
from .simulator import (
    ContinuityReport,
    IntegrateOpts,
    LipschitzModuli,
    RegionSpec,
    RfcReport,
    RfdeSystem,
    Trajectory,
    check_continuity_bound,
    check_rfc,
    estimate_lipschitz_moduli,
    integrate,
    output_distance,
    output_norm,
    trajectory_to_csv,
)
from .lyapunov import (
    DiniOpts,
    FalsificationReport,
    LyapunovFunctional,
    RazumikhinFunction,
    SamplerSpec,
    check_lyapunov_ios,
    check_razumikhin,
    converse_functional_uq,
    dini_functional,
    dini_pointwise,
)
from .verify import (
    EnvelopeCheck,
    check_monotone_decay,
    fit_kl_envelope,
    verify_ios_envelope,
    verify_rgaos_envelope,
    verify_v_decay_estimate,
)
from .examples import (
    REGISTRY,
    Certificate,
    DemoReport,
    ExampleBundle,
    build_example,
    example_4_8,
    example_5_2,
    example_5_4,
)

__all__ = [
    "__version__",
    # history
    "HistorySegment", "sup_norm", "extend", "history_distance", "sample_history",
    "clip_to_ball",
    # signals
    "PiecewiseSignal", "SignalSpec", "sample_signal", "constant_signal",
    # comparison functions
    "ComparisonFn", "KlFn", "kl_from_rate", "fading_sup", "identity", "linear",
    "power", "exp_weight", "constant",
    # simulator
    "RfdeSystem", "IntegrateOpts", "Trajectory", "integrate", "output_norm",
    "output_distance", "RegionSpec", "LipschitzModuli", "estimate_lipschitz_moduli",
    "ContinuityReport", "check_continuity_bound", "RfcReport", "check_rfc",
    "trajectory_to_csv",
    # lyapunov
    "LyapunovFunctional", "RazumikhinFunction", "DiniOpts", "dini_functional",
    "dini_pointwise", "SamplerSpec", "FalsificationReport", "check_lyapunov_ios",
    "check_razumikhin", "converse_functional_uq",
    # verify
    "EnvelopeCheck", "verify_rgaos_envelope", "verify_ios_envelope",
    "verify_v_decay_estimate", "check_monotone_decay", "fit_kl_envelope",
    # examples
    "Certificate", "ExampleBundle", "DemoReport", "example_4_8", "example_5_2",
    "example_5_4", "REGISTRY", "build_example",
]
