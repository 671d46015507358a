"""``repro.lint`` — AST-based static enforcement of the repo's device contracts.

The whole premise of the reproduction is that the HODLR pipeline stays on
device as packed batched kernels: construction, factorization, and apply
route every array operation through an
:class:`~repro.backends.dispatch.ArrayBackend`, precision is owned by
:class:`~repro.backends.context.PrecisionPolicy`, and every kernel launch is
accounted by :mod:`repro.backends.counters` so the analytic performance
model and the CI counter gate stay truthful.  Until now those invariants
were enforced only at *runtime* — by the recording stub backend in
``tests/test_context.py`` and the counter diffs of
``benchmarks/check_bench.py``.  This package enforces them *statically*, at
CI time, with zero third-party dependencies (pure stdlib ``ast`` +
``tomllib``).

Rules
-----
RL001 backend-purity
    Context-threaded modules (the compiled plans, the shared packing
    helpers, the batched executors) may not call array-producing
    ``np.*`` / ``scipy.linalg.*`` functions on data arrays; they must route
    through the backend.  Host index/pivot metadata (explicit integer or
    boolean ``dtype=``) is exempt.
RL002 dtype-hardcoding
    No literal ``np.float64`` / ``dtype=float`` / ``.astype("float64")`` in
    plan/factor storage paths — a hard-coded floating dtype there silently
    defeats :class:`~repro.backends.context.PrecisionPolicy` demotion.
RL003 trace-accounting completeness
    Cross-module check: every kernel method on the ``ArrayBackend``
    protocol must have a recording wrapper (a ``KernelEvent`` with the
    mapped kernel name) in ``backends/batched.py`` and a flop model
    (``<stem>_flops``) in ``backends/counters.py`` — an un-modeled kernel
    corrupts the analytic ``PerformanceModel`` and the CI counter gate.
RL004 test determinism
    No wall-clock calls (``time.perf_counter`` & co.) and no unseeded RNG
    (bare ``np.random.*``, ``default_rng()`` without a seed) in ``src/``
    and ``tests/`` — the tier-1 suite must never time or flake.
RL005 config-serialization drift
    Every dataclass field of the API config objects must be covered by
    ``to_dict`` / ``from_dict`` so configs keep round-tripping losslessly.

Suppressions
------------
Deliberate exceptions are baselined in-source with *reasoned* pragmas::

    x = time.perf_counter()  # repro-lint: ignore[RL004] -- wall-clock solver stats, not test timing

or, for whole files (calibration sweeps, host-only baselines)::

    # repro-lint: file-ignore[RL004] -- measured crossover sweeps are the module's purpose

A pragma without a ``-- reason`` is itself an error (RL000), and
``python -m repro.lint --list-pragmas`` prints the complete audit trail.

Run ``python -m repro.lint src tests benchmarks`` from the repo root; scope
and rule configuration live in ``[tool.repro-lint]`` in ``pyproject.toml``.
"""

from .config import LintConfig, load_config
from .pragmas import Pragma, scan_pragmas
from .registry import RuleSpec, all_rules, get_rule, register_rule
from .runner import LintResult, lint_paths, run_lint
from .violations import Violation

__all__ = [
    "LintConfig",
    "LintResult",
    "Pragma",
    "RuleSpec",
    "Violation",
    "all_rules",
    "get_rule",
    "lint_paths",
    "load_config",
    "register_rule",
    "run_lint",
    "scan_pragmas",
]
