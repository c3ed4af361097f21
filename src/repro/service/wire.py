"""Wire forms of the service layer: picklable jobs and content hashes.

A :class:`~repro.api.config.SynthesisRequest` may carry live hooks
(``on_progress``/``cancel``) that cannot cross a process boundary.
:class:`WireRequest` is the hook-free, picklable projection the queue,
the worker pool, and the file-based ``repro submit`` protocol all share;
it round-trips to a canonical JSON dict, and its SHA-256 fingerprint
over that dict is the *content address* of the question — the key for
in-flight deduplication and for the persistent result store.

The staging fingerprint hashes only what staging depends on — the
deduplicated example-string set and the alphabet (the same key
:func:`repro.api.session.staging_key_of` uses in memory) — so requests
over the same strings share one staging artifact on disk and one *warm*
worker in the pool's affinity scheduler.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..api.config import EngineConfig, SynthesisRequest
from ..obs.trace import TraceContext
from ..regex.cost import CostFunction
from ..spec import Spec

#: Scheduling priorities: lower values run earlier; ties are FIFO.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 10
PRIORITY_LOW = 20


def _sha256_of(payload: object) -> str:
    """Canonical-JSON SHA-256 of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def staging_fingerprint(spec: Spec) -> str:
    """Content address of the staging artifacts a spec needs.

    Depends only on the deduplicated example-string set and the
    alphabet — exactly what ``ic(P ∪ N)``, the guide table and its flat
    view are functions of.  Partitions of the same word set therefore
    share one fingerprint (and hence one store entry and one warm
    worker).
    """
    return _sha256_of(
        {"words": sorted(set(spec.all_words)), "alphabet": list(spec.alphabet)}
    )


@dataclass(frozen=True)
class WireRequest:
    """A hook-free synthesis request that pickles and JSON-round-trips.

    ``config`` is always concrete (never None) and its backend name is
    expected to be *canonical* — :meth:`of` resolves aliases through a
    registry so ``"gpu"`` and ``"vector"`` submissions deduplicate
    against each other.
    """

    spec: Spec
    cost_fn: Optional[CostFunction] = None
    max_cost: Optional[int] = None
    allowed_error: float = 0.0
    max_generated: Optional[int] = None
    time_limit: Optional[float] = None
    config: EngineConfig = EngineConfig()
    #: Observability identity (trace id + parent span); rides the wire
    #: so worker processes record spans against the submitter's trace,
    #: but never enters the fingerprint (it is not part of the question).
    trace_ctx: Optional[TraceContext] = None

    @classmethod
    def of(cls, request, default_config=None, registry=None) -> "WireRequest":
        """Project a request (or spec, or pair) onto the wire.

        Hooks are dropped — progress and cancellation are service-side
        concerns, re-attached by the pool on the parent side.
        """
        if isinstance(request, cls):
            if registry is not None:
                canonical = registry.canonical(request.config.backend)
                if canonical != request.config.backend:
                    return dataclasses.replace(
                        request,
                        config=request.config.replace(backend=canonical),
                    )
            return request
        request = SynthesisRequest.of(request)
        config = request.config if request.config is not None else default_config
        if config is None:
            config = EngineConfig()
        if registry is not None:
            config = config.replace(backend=registry.canonical(config.backend))
        return cls(
            spec=request.spec,
            cost_fn=request.cost_fn,
            max_cost=request.max_cost,
            allowed_error=request.allowed_error,
            max_generated=request.max_generated,
            time_limit=request.time_limit,
            config=config,
            trace_ctx=request.trace_ctx,
        )

    def to_request(self) -> SynthesisRequest:
        """The :class:`SynthesisRequest` a worker actually serves."""
        return SynthesisRequest(
            spec=self.spec,
            cost_fn=self.cost_fn,
            max_cost=self.max_cost,
            allowed_error=self.allowed_error,
            max_generated=self.max_generated,
            time_limit=self.time_limit,
            config=self.config,
            trace_ctx=self.trace_ctx,
        )

    # ------------------------------------------------------------------
    # Canonical JSON codec (shared by ``repro serve``/``repro submit``)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """JSON-serialisable canonical form (drives the fingerprint)."""
        payload: Dict[str, object] = {
            "spec": self.spec.to_dict(),
            "cost_fn": list(self.cost_fn.as_tuple()) if self.cost_fn else None,
            "max_cost": self.max_cost,
            "allowed_error": self.allowed_error,
            "max_generated": self.max_generated,
            "time_limit": self.time_limit,
            "config": {
                "backend": self.config.backend,
                "max_cache_size": self.config.max_cache_size,
                "use_guide_table": self.config.use_guide_table,
                "check_uniqueness": self.config.check_uniqueness,
                "max_generated": self.config.max_generated,
                "trace": self.config.trace,
            },
        }
        # Only emitted when present so untraced payloads keep the exact
        # shape every pre-tracing client and store produced.
        if self.trace_ctx is not None:
            payload["trace_ctx"] = self.trace_ctx.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "WireRequest":
        """Inverse of :meth:`to_json_dict` (tolerates omitted fields, and
        ignores unknown ones so payloads of older clients still parse)."""
        spec = Spec.from_dict(data["spec"])
        cost_values = data.get("cost_fn")
        config_data = dict(data.get("config") or {})
        return cls(
            spec=spec,
            cost_fn=(
                CostFunction.from_tuple(tuple(cost_values))
                if cost_values
                else None
            ),
            max_cost=data.get("max_cost"),
            allowed_error=float(data.get("allowed_error") or 0.0),
            max_generated=data.get("max_generated"),
            time_limit=data.get("time_limit"),
            config=EngineConfig(
                backend=config_data.get("backend", "vector"),
                max_cache_size=config_data.get("max_cache_size"),
                use_guide_table=config_data.get("use_guide_table", True),
                check_uniqueness=config_data.get("check_uniqueness", True),
                max_generated=config_data.get("max_generated"),
                trace=bool(config_data.get("trace", False)),
            ),
            trace_ctx=TraceContext.from_json_dict(data.get("trace_ctx")),
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address of the whole question (spec + config + knobs).

        Two submissions with equal fingerprints would provably receive
        bit-identical answers, so the queue collapses them in flight and
        the result store answers repeats across restarts.  Pure
        *execution* knobs are excluded for exactly that reason:
        ``trace``/``trace_ctx`` never change the answer, so a traced run
        must dedupe against (and be answered by) untraced runs of the
        same question.
        """
        payload = self.to_json_dict()
        payload.pop("trace_ctx", None)
        payload["config"] = {
            key: value
            for key, value in payload["config"].items()
            if key != "trace"
        }
        return _sha256_of(payload)

    def staging_fingerprint(self) -> str:
        """Content address of the staging this request needs."""
        return staging_fingerprint(self.spec)

    def effective_cost_fn(self) -> CostFunction:
        """The cost function, defaulted to uniform."""
        return self.cost_fn if self.cost_fn is not None else CostFunction.uniform()

    def effective_max_cost(self) -> int:
        """The cost ceiling, defaulted like the session layer's."""
        return self.to_request().effective_max_cost(self.effective_cost_fn())
