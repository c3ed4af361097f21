"""The classic one-shot entry points: :func:`synthesize` and
:func:`make_engine`.

Both are thin backward-compatible facades over the session-oriented API
in :mod:`repro.api`: a :func:`synthesize` call builds a throwaway
:class:`~repro.api.session.Session` around a
:class:`~repro.api.config.SynthesisRequest`, so one-shot callers keep
the original keyword surface while long-lived callers migrate to
sessions and get staging reuse and batched serving for free.

``BACKENDS`` and ``BACKEND_ALIASES`` are import-time snapshots of the
default backend registry, kept for backward compatibility; new code
should consult :func:`repro.api.default_registry`.
"""

from __future__ import annotations

from typing import Optional, Union as TypingUnion

from ..api.config import EngineConfig, SynthesisRequest
from ..api.registry import default_registry
from ..api.session import Session
from ..language.guide_table import GuideTable
from ..language.universe import Universe
from ..regex.cost import CostFunction
from ..spec import Spec
from .engine import SearchEngine
from .result import SynthesisResult

#: Legacy view: canonical backend names mapped to engine classes.
BACKENDS = default_registry().backends()

#: Legacy view: friendly aliases mapped to canonical names.
BACKEND_ALIASES = default_registry().aliases()


def make_engine(
    spec: Spec,
    cost_fn: CostFunction,
    backend: str = "vector",
    universe: Optional[Universe] = None,
    guide: Optional[GuideTable] = None,
    max_cache_size: Optional[int] = None,
    allowed_error: float = 0.0,
    use_guide_table: bool = True,
    check_uniqueness: bool = True,
    max_generated: Optional[int] = None,
) -> SearchEngine:
    """Construct (but do not run) a search engine.

    Exposed separately so tests and the evaluation harness can share one
    universe/guide-table across runs (the paper's staging: those depend
    only on ``(P, N)``, not on the cost function).
    """
    info = default_registry().resolve(backend)
    if universe is None:
        universe = Universe(spec.all_words, alphabet=spec.alphabet)
    if guide is None:
        guide = GuideTable(universe)
    return info.factory(
        spec,
        cost_fn,
        universe,
        guide,
        max_cache_size=max_cache_size,
        allowed_error=allowed_error,
        use_guide_table=use_guide_table,
        check_uniqueness=check_uniqueness,
        max_generated=max_generated,
    )


def synthesize(
    spec: TypingUnion[Spec, tuple],
    cost_fn: Optional[CostFunction] = None,
    max_cost: Optional[int] = None,
    backend: str = "vector",
    max_cache_size: Optional[int] = None,
    allowed_error: float = 0.0,
    use_guide_table: bool = True,
    check_uniqueness: bool = True,
    max_generated: Optional[int] = None,
    universe: Optional[Universe] = None,
    guide: Optional[GuideTable] = None,
) -> SynthesisResult:
    """Infer a precise, minimal regular expression from examples.

    Parameters
    ----------
    spec:
        A :class:`~repro.spec.Spec`, or a ``(positives, negatives)`` pair
        of string iterables.
    cost_fn:
        The cost homomorphism; defaults to ``(1, 1, 1, 1, 1)``.
    max_cost:
        Upper bound on the cost sweep.  Defaults to the cost of the
        maximally-overfitted union of the positive examples, which
        guarantees termination with a solution for precise synthesis.
    backend:
        Any name or alias known to the backend registry —
        ``"scalar"``/``"cpu"`` for the sequential engine, or
        ``"vector"``/``"gpu"`` for the data-parallel engine (default).
    max_cache_size:
        Capacity of the language cache in CSs.  When exceeded, the search
        enters OnTheFly mode and may finish with status ``"oom"``
        (paper §3).  ``None`` means unbounded.
    allowed_error:
        Fraction of examples the result may misclassify (paper §5.2);
        ``0.0`` demands precision.
    use_guide_table / check_uniqueness:
        Ablation switches (scalar backend): replace the staged guide
        table with per-construction split computation, or disable the
        uniqueness check.  Defaults reproduce the paper's algorithm.
    universe / guide:
        Pre-built staging structures to share across runs (long-lived
        callers should prefer a :class:`~repro.api.session.Session`,
        which caches them automatically).

    Returns
    -------
    SynthesisResult
        With ``status`` ``"success"``, ``"not_found"`` or ``"oom"``.
    """
    if not isinstance(spec, Spec):
        positives, negatives = spec
        spec = Spec(positives, negatives)
    request = SynthesisRequest(
        spec=spec,
        cost_fn=cost_fn,
        max_cost=max_cost,
        allowed_error=allowed_error,
        max_generated=max_generated,
        config=EngineConfig(
            backend=backend,
            max_cache_size=max_cache_size,
            use_guide_table=use_guide_table,
            check_uniqueness=check_uniqueness,
        ),
    )
    # A throwaway session: one-shot semantics (no cross-call caching),
    # identical staging behaviour to the original facade.
    return Session(request.config).synthesize(request, universe=universe, guide=guide)
