"""Strict request validation for the scoring service.

Every endpoint body is validated into a frozen request object before
any compute happens.  Validation is deliberately strict: unknown
fields are rejected (listing the offenders and the accepted names),
types are checked field by field, and the resulting dataclasses carry
a :meth:`canonical` form — a JSON-stable dict with every default made
explicit — which is what the coalescing layer fingerprints, so two
requests that *mean* the same thing share one in-flight computation
even when one spelled a default out and the other omitted it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.exceptions import ReproError

__all__ = [
    "ValidationError",
    "ScoreRequest",
    "AnalyzeRequest",
    "validate_score_request",
    "validate_analyze_request",
]

MEANS = ("geometric", "arithmetic", "harmonic")
CHARACTERIZATIONS = ("sar", "methods", "micro")
SOM_MODES = ("sequential", "batch")

_SCORE_FIELDS = ("measurements", "partition", "mean")
_ANALYZE_FIELDS = (
    "characterization",
    "machine",
    "seed",
    "linkage",
    "som_mode",
    "cluster_counts",
    "wait",
)


class ValidationError(ReproError):
    """A request body failed validation; maps to a structured 4xx."""

    def __init__(self, detail: str, *, field: str | None = None) -> None:
        super().__init__(detail)
        self.detail = detail
        self.field = field


def _require_object(body: Any, endpoint: str) -> Mapping[str, Any]:
    if not isinstance(body, Mapping):
        raise ValidationError(
            f"{endpoint}: request body must be a JSON object, "
            f"got {type(body).__name__}"
        )
    return body


def _reject_unknown(
    body: Mapping[str, Any], known: tuple[str, ...], endpoint: str
) -> None:
    unknown = sorted(set(body) - set(known))
    if unknown:
        raise ValidationError(
            f"{endpoint}: unknown field(s) {unknown}; "
            f"accepted fields: {sorted(known)}",
            field=unknown[0],
        )


def _choice(value: Any, allowed: tuple[str, ...], field: str) -> str:
    if not isinstance(value, str) or value not in allowed:
        raise ValidationError(
            f"{field}: must be one of {list(allowed)}, got {value!r}",
            field=field,
        )
    return value


@dataclass(frozen=True)
class ScoreRequest:
    """A validated ``POST /score`` body.

    ``measurements`` maps machine name to per-workload scores;
    ``partition`` is the explicit cluster partition (a tuple of
    blocks) the hierarchical mean equalizes over.
    """

    measurements: tuple[tuple[str, tuple[tuple[str, float], ...]], ...]
    partition: tuple[tuple[str, ...], ...]
    mean: str = "geometric"

    def measurements_dict(self) -> dict[str, dict[str, float]]:
        """The measurements as plain nested dicts (machine order kept)."""
        return {
            machine: dict(scores) for machine, scores in self.measurements
        }

    def canonical(self) -> dict[str, Any]:
        """JSON-stable form with defaults explicit (the coalescing key)."""
        return {
            "measurements": {
                machine: {name: score for name, score in sorted(scores)}
                for machine, scores in sorted(self.measurements)
            },
            "partition": sorted(sorted(block) for block in self.partition),
            "mean": self.mean,
        }


@dataclass(frozen=True)
class AnalyzeRequest:
    """A validated ``POST /analyze`` body.

    Mirrors the ``repro-hmeans pipeline`` CLI knobs: the same
    characterization/machine/seed/linkage plus ``som_mode``.
    ``wait=False`` turns the request into an async job: the response
    carries a run id immediately and the result streams through
    ``GET /runs/{id}`` and the run ledger.
    """

    characterization: str = "sar"
    machine: str | None = "A"
    seed: int = 11
    linkage: str = "complete"
    som_mode: str = "sequential"
    cluster_counts: tuple[int, ...] = tuple(range(2, 9))
    wait: bool = True

    def canonical(self) -> dict[str, Any]:
        """JSON-stable form with defaults explicit (the coalescing key).

        ``wait`` is deliberately excluded: a sync and an async request
        for the same analysis are the same computation and must
        coalesce onto one engine run.
        """
        return {
            "characterization": self.characterization,
            "machine": self.machine,
            "seed": self.seed,
            "linkage": self.linkage,
            "som_mode": self.som_mode,
            "cluster_counts": list(self.cluster_counts),
        }


def validate_score_request(body: Any) -> ScoreRequest:
    """Validate a ``POST /score`` body into a :class:`ScoreRequest`."""
    body = _require_object(body, "score")
    _reject_unknown(body, _SCORE_FIELDS, "score")

    measurements = body.get("measurements")
    if not isinstance(measurements, Mapping) or not measurements:
        raise ValidationError(
            "measurements: must be a non-empty object mapping machine "
            "names to {workload: score} objects",
            field="measurements",
        )
    columns: list[tuple[str, tuple[tuple[str, float], ...]]] = []
    for machine, scores in measurements.items():
        if not isinstance(machine, str) or not machine:
            raise ValidationError(
                f"measurements: machine names must be non-empty strings, "
                f"got {machine!r}",
                field="measurements",
            )
        if not isinstance(scores, Mapping) or not scores:
            raise ValidationError(
                f"measurements[{machine!r}]: must be a non-empty "
                "{workload: score} object",
                field="measurements",
            )
        column: list[tuple[str, float]] = []
        for name, score in scores.items():
            if not isinstance(name, str) or not name:
                raise ValidationError(
                    f"measurements[{machine!r}]: workload names must be "
                    f"non-empty strings, got {name!r}",
                    field="measurements",
                )
            if (
                isinstance(score, bool)
                or not isinstance(score, (int, float))
                or not score > 0
            ):
                raise ValidationError(
                    f"measurements[{machine!r}][{name!r}]: scores must be "
                    f"positive numbers, got {score!r}",
                    field="measurements",
                )
            column.append((name, float(score)))
        columns.append((machine, tuple(column)))

    partition = body.get("partition")
    if not isinstance(partition, (list, tuple)) or not partition:
        raise ValidationError(
            "partition: must be a non-empty array of arrays of workload "
            "names",
            field="partition",
        )
    blocks: list[tuple[str, ...]] = []
    for block in partition:
        if not isinstance(block, (list, tuple)) or not block:
            raise ValidationError(
                "partition: every block must be a non-empty array of "
                f"workload names, got {block!r}",
                field="partition",
            )
        if not all(isinstance(name, str) and name for name in block):
            raise ValidationError(
                f"partition: workload names must be non-empty strings "
                f"in block {block!r}",
                field="partition",
            )
        blocks.append(tuple(block))

    mean = body.get("mean", "geometric")
    mean = _choice(mean, MEANS, "mean")
    return ScoreRequest(
        measurements=tuple(columns), partition=tuple(blocks), mean=mean
    )


def validate_analyze_request(body: Any) -> AnalyzeRequest:
    """Validate a ``POST /analyze`` body into an :class:`AnalyzeRequest`."""
    body = _require_object(body, "analyze")
    _reject_unknown(body, _ANALYZE_FIELDS, "analyze")

    characterization = _choice(
        body.get("characterization", "sar"),
        CHARACTERIZATIONS,
        "characterization",
    )
    machine: str | None
    if characterization == "sar":
        machine = _choice(body.get("machine", "A"), ("A", "B"), "machine")
    else:
        if body.get("machine") is not None:
            raise ValidationError(
                f"machine: not accepted with "
                f"characterization={characterization!r} "
                "(machine-independent features)",
                field="machine",
            )
        machine = None

    seed = body.get("seed", 11)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(
            f"seed: must be an integer, got {seed!r}", field="seed"
        )

    linkage = body.get("linkage", "complete")
    if not isinstance(linkage, str) or not linkage:
        raise ValidationError(
            f"linkage: must be a non-empty string, got {linkage!r}",
            field="linkage",
        )

    som_mode = _choice(body.get("som_mode", "sequential"), SOM_MODES, "som_mode")

    cluster_counts = body.get("cluster_counts")
    if cluster_counts is None:
        counts = tuple(range(2, 9))
    else:
        if not isinstance(cluster_counts, (list, tuple)) or not cluster_counts:
            raise ValidationError(
                "cluster_counts: must be a non-empty array of integers >= 1",
                field="cluster_counts",
            )
        for k in cluster_counts:
            if isinstance(k, bool) or not isinstance(k, int) or k < 1:
                raise ValidationError(
                    f"cluster_counts: entries must be integers >= 1, "
                    f"got {k!r}",
                    field="cluster_counts",
                )
        counts = tuple(sorted(set(cluster_counts)))

    wait = body.get("wait", True)
    if not isinstance(wait, bool):
        raise ValidationError(
            f"wait: must be a boolean, got {wait!r}", field="wait"
        )

    return AnalyzeRequest(
        characterization=characterization,
        machine=machine,
        seed=seed,
        linkage=linkage,
        som_mode=som_mode,
        cluster_counts=counts,
        wait=wait,
    )
