"""The ``repro-api/1`` wire schema: typed request/response documents.

Every document that crosses the process boundary between a front-end (the
HTTP server, the thin clients, the CLI's ``--server`` mode) and the
scheduler core is one of the dataclasses here, round-tripped through plain
JSON-safe dicts:

* :class:`SynthesisRequest` — a problem plus the options to solve it
  under, built on :func:`~repro.net.serialize.problem_to_dict`;
* :class:`SynthesisDelta` — a *delta* submission for streaming workloads:
  the fingerprint of a previously submitted base problem plus a
  structured :class:`~repro.net.delta.ProblemPatch` (link add/remove,
  rule change, ingress change, spec swap).  The scheduler resolves it
  against the retained base and warm-starts the search from the base
  plan's order; see :meth:`SynthesisDelta.from_dict`;
* :class:`JobView` — the lightweight lifecycle view of a submitted job
  (what ``GET /v1/jobs`` lists);
* :class:`SynthesisResponse` — a settled job's verdict, carrying the plan
  via :func:`~repro.net.serialize.plan_to_dict`; its :meth:`to_dict` emits
  exactly the ``batch`` subcommand's JSONL record shape, so remote and
  in-process runs are diffable line-for-line;
* :class:`ErrorEnvelope` — the machine-readable error document, built on
  the CLI exit-code taxonomy in :mod:`repro.errors` (2 infeasible,
  3 timeout, 4 parse), so a thin client can reconstruct the same exit
  status a local run would have produced;
* the **fleet documents** (:class:`LeaseRequest`, :class:`LeaseGrant`,
  :class:`LeaseCompletion`, :class:`HeartbeatRequest`) — the work-pull
  protocol between a coordinator (``repro serve --fleet``) and its
  runners (``repro worker``).  Like every other document they are plain
  JSON: no verdict memo, or anything else that would need unpickling,
  crosses the host boundary.

Documents carry ``"api": "repro-api/1"``; parsers accept a missing marker
(hand-written requests) but refuse a mismatched one with
:class:`~repro.errors.ParseError` — a ``repro-api/2`` server will keep
rejecting v1 clients loudly instead of mis-parsing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.errors import ParseError, ReproError, error_code, exit_code_for
from repro.mc.interface import CHECKER_NAMES
from repro.net.delta import ProblemPatch
from repro.net.serialize import (
    Problem,
    plan_from_dict,
    problem_from_dict,
    problem_to_dict,
    unit_order_from_wire,
    unit_order_to_wire,
)
from repro.net.fields import TrafficClass
from repro.service.jobs import JobResult, JobStatus, SynthesisJob, SynthesisOptions
from repro.synthesis.plan import UpdatePlan

#: The wire-protocol version every document in this module speaks.
API_VERSION = "repro-api/1"

_STATUS_VALUES = frozenset(status.value for status in JobStatus)


def check_api_version(data: Mapping[str, Any], *, where: str = "document") -> None:
    """Refuse a document marked with a different protocol version."""
    version = data.get("api")
    if version is not None and version != API_VERSION:
        raise ParseError(
            f"{where}: unsupported api version {version!r} "
            f"(this build speaks {API_VERSION})"
        )


# ----------------------------------------------------------------------
# options
# ----------------------------------------------------------------------
def options_to_dict(options: SynthesisOptions) -> Dict[str, Any]:
    """All :class:`SynthesisOptions` fields as a JSON-safe dict."""
    return {
        "checker": options.checker,
        "granularity": options.granularity,
        "remove_waits": options.remove_waits,
        "use_counterexamples": options.use_counterexamples,
        "use_early_termination": options.use_early_termination,
        "use_reachability_heuristic": options.use_reachability_heuristic,
        "timeout": options.timeout,
        "portfolio": list(options.portfolio),
        "memoize": options.memoize,
        "use_plan_cache": options.use_plan_cache,
        "preflight": options.preflight,
    }


def _require_bool(data: Mapping[str, Any], key: str, default: bool) -> bool:
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise ParseError(f"options.{key}: expected a boolean, got {value!r}")
    return value


def options_from_dict(
    data: Mapping[str, Any], base: Optional[SynthesisOptions] = None
) -> SynthesisOptions:
    """Inverse of :func:`options_to_dict`; validates every field.

    The options document is *sparse*: fields the request does not set fall
    back to ``base`` (the receiving scheduler's ``default_options`` — how
    ``repro serve --timeout 30`` still bounds a request that only picks a
    checker) or, without a base, to the :class:`SynthesisOptions`
    defaults.  Unknown keys (including fields since removed from
    ``repro-api/1``), unknown checker names and non-numeric timeouts all
    raise
    :class:`~repro.errors.ParseError` (the ``parse`` family, wire code 4 /
    HTTP 400).
    """
    if not isinstance(data, Mapping):
        raise ParseError(f"options: expected an object, got {data!r}")
    base = base or SynthesisOptions()
    known = {
        "checker", "granularity", "remove_waits", "use_counterexamples",
        "use_early_termination", "use_reachability_heuristic", "timeout",
        "portfolio", "memoize", "use_plan_cache", "preflight",
    }
    unknown = set(data) - known
    if unknown:
        raise ParseError(f"options: unknown fields {sorted(unknown)}")
    checker = str(data.get("checker", base.checker))
    portfolio = data.get("portfolio", list(base.portfolio))
    if not isinstance(portfolio, (list, tuple)):
        raise ParseError(f"options.portfolio: expected a list, got {portfolio!r}")
    portfolio = tuple(str(backend) for backend in portfolio)
    for backend in (checker, *portfolio):
        if backend not in CHECKER_NAMES:
            raise ParseError(
                f"options: unknown checker backend {backend!r} "
                f"(choose from {', '.join(CHECKER_NAMES)})"
            )
    granularity = str(data.get("granularity", base.granularity))
    if granularity not in ("switch", "rule"):
        raise ParseError(
            f"options.granularity: expected 'switch' or 'rule', got {granularity!r}"
        )
    timeout = data.get("timeout", base.timeout)
    if timeout is not None:
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)):
            raise ParseError(f"options.timeout: expected a number, got {timeout!r}")
        timeout = float(timeout)
    return SynthesisOptions(
        checker=checker,
        granularity=granularity,
        remove_waits=_require_bool(data, "remove_waits", base.remove_waits),
        use_counterexamples=_require_bool(
            data, "use_counterexamples", base.use_counterexamples
        ),
        use_early_termination=_require_bool(
            data, "use_early_termination", base.use_early_termination
        ),
        use_reachability_heuristic=_require_bool(
            data, "use_reachability_heuristic", base.use_reachability_heuristic
        ),
        timeout=timeout,
        portfolio=portfolio,
        memoize=_require_bool(data, "memoize", base.memoize),
        use_plan_cache=_require_bool(data, "use_plan_cache", base.use_plan_cache),
        preflight=_require_bool(data, "preflight", base.preflight),
    )


# ----------------------------------------------------------------------
# requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SynthesisRequest:
    """One job submission: a problem plus the options to solve it under.

    ``options`` is either a full :class:`SynthesisOptions`, a *sparse*
    mapping of only the fields the sender chose (the rest merge onto the
    receiving scheduler's defaults), or ``None`` — the request does not
    choose at all and the scheduler applies its own ``default_options``
    wholesale (how ``repro serve --timeout 30`` reaches clients that send
    bare problems).  Parsing always resolves to a full
    :class:`SynthesisOptions` or ``None``.
    """

    problem: Problem
    options: Union[SynthesisOptions, Mapping[str, Any], None] = None
    job_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "api": API_VERSION,
            "problem": problem_to_dict(self.problem),
        }
        if isinstance(self.options, SynthesisOptions):
            out["options"] = options_to_dict(self.options)
        elif self.options is not None:
            out["options"] = dict(self.options)
        if self.job_id is not None:
            out["id"] = self.job_id
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        option_defaults: Optional[SynthesisOptions] = None,
    ) -> "SynthesisRequest":
        """Parse a request document.

        ``option_defaults`` is the receiving scheduler's default options:
        a request's (sparse) options merge onto it, and a request without
        any options resolves to ``options=None`` (the scheduler applies
        its defaults wholesale).
        """
        if not isinstance(data, Mapping):
            raise ParseError(f"request: expected an object, got {data!r}")
        check_api_version(data, where="request")
        problem_data = data.get("problem")
        if not isinstance(problem_data, Mapping):
            raise ParseError("request: missing 'problem' object")
        try:
            problem = problem_from_dict(problem_data)
        except ParseError:
            raise
        except (ReproError, KeyError, TypeError, ValueError, AttributeError) as err:
            raise ParseError(f"request: bad problem: {err!r}") from err
        options = (
            options_from_dict(data["options"], option_defaults)
            if "options" in data
            else None
        )
        job_id = data.get("id")
        if job_id is not None:
            job_id = str(job_id)
        return cls(problem=problem, options=options, job_id=job_id)


@dataclass(frozen=True)
class SynthesisDelta:
    """A delta submission: edit a retained base problem instead of
    resending it.

    ``base`` is the fingerprint of a previously submitted problem (the
    ``fingerprint`` field of its :class:`JobView` / :class:`SynthesisResponse`);
    ``patch`` is the structured edit.  The scheduler resolves the patch
    against its retained copy of the base, reuses the base's warm caches,
    and seeds the search with the base plan's unit order.  A delta whose
    base the scheduler no longer retains is *not* a parse error — it is a
    missing resource (HTTP 404 / ``not_found`` envelope), and clients that
    still hold the base problem fall back to a cold full submission.

    ``options`` follows the same sparse-merge contract as
    :class:`SynthesisRequest`; when omitted, the delta inherits the
    *retained base job's* options (not the scheduler's defaults), so the
    granularity and checker match the base plan whose unit order seeds the
    warm start.

    >>> delta = SynthesisDelta.from_dict(
    ...     {"api": "repro-api/1", "base": "fp123", "patch": {"spec": "true"}}
    ... )
    >>> delta.base
    'fp123'
    >>> delta.patch.spec
    'true'
    >>> sorted(delta.to_dict())
    ['api', 'base', 'patch']
    >>> SynthesisDelta.from_dict({"patch": {}})
    Traceback (most recent call last):
        ...
    repro.errors.ParseError: delta: missing or empty 'base'
    """

    base: str
    patch: ProblemPatch
    options: Union[SynthesisOptions, Mapping[str, Any], None] = None
    job_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "api": API_VERSION,
            "base": self.base,
            "patch": self.patch.to_dict(),
        }
        if isinstance(self.options, SynthesisOptions):
            out["options"] = options_to_dict(self.options)
        elif self.options is not None:
            out["options"] = dict(self.options)
        if self.job_id is not None:
            out["id"] = self.job_id
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        *,
        option_defaults: Optional[SynthesisOptions] = None,
    ) -> "SynthesisDelta":
        """Parse a delta document; malformed patches raise
        :class:`~repro.errors.ParseError` (HTTP 400)."""
        if not isinstance(data, Mapping):
            raise ParseError(f"delta: expected an object, got {data!r}")
        check_api_version(data, where="delta")
        base = _require_str(data, "base", where="delta")
        patch_data = data.get("patch")
        if not isinstance(patch_data, Mapping):
            raise ParseError("delta: missing 'patch' object")
        patch = ProblemPatch.from_dict(patch_data)
        options = (
            options_from_dict(data["options"], option_defaults)
            if "options" in data
            else None
        )
        job_id = data.get("id")
        if job_id is not None:
            job_id = str(job_id)
        return cls(base=base, patch=patch, options=options, job_id=job_id)


def is_delta_document(data: Mapping[str, Any]) -> bool:
    """True when a ``POST /v1/jobs`` entry is a delta (has a ``base`` key)
    rather than a full :class:`SynthesisRequest` (has a ``problem`` key)."""
    return isinstance(data, Mapping) and "base" in data


# ----------------------------------------------------------------------
# job views and responses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobView:
    """Lifecycle view of one submitted job (``GET /v1/jobs`` listing)."""

    job_id: str
    status: str
    fingerprint: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobView":
        if not isinstance(data, Mapping):
            raise ParseError(f"job view: expected an object, got {data!r}")
        check_api_version(data, where="job view")
        status = str(data.get("status", ""))
        if status not in _STATUS_VALUES:
            raise ParseError(f"job view: unknown status {status!r}")
        return cls(
            job_id=str(data.get("id", "")),
            status=status,
            fingerprint=str(data.get("fingerprint", "")),
        )

    @classmethod
    def from_job(cls, job: SynthesisJob) -> "JobView":
        return cls(
            job_id=job.job_id,
            status=job.status.value,
            fingerprint=job.fingerprint,
        )


@dataclass(frozen=True)
class SynthesisResponse:
    """A settled job's verdict as it crosses the wire.

    :meth:`to_dict` produces the exact record shape of
    :meth:`repro.service.jobs.JobResult.to_dict` (plus the ``api`` marker),
    so the ``batch --server`` JSONL stream diffs cleanly against an
    in-process run.
    """

    job_id: str
    status: str
    plan: Optional[UpdatePlan] = None
    seconds: float = 0.0
    cached: bool = False
    backend: Optional[str] = None
    message: str = ""
    fingerprint: str = ""

    def to_dict(self, *, include_plan: bool = True) -> Dict[str, Any]:
        out = self.to_result().to_dict(include_plan=include_plan)
        out["api"] = API_VERSION
        return out

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Any],
        classes: Optional[Mapping[str, TrafficClass]] = None,
    ) -> "SynthesisResponse":
        """Parse a response document; ``classes`` rehydrates the plan's
        rule-granularity commands (unknown names fall back to name-only
        classes, exactly like the plan cache)."""
        if not isinstance(data, Mapping):
            raise ParseError(f"response: expected an object, got {data!r}")
        check_api_version(data, where="response")
        status = str(data.get("status", ""))
        if status not in _STATUS_VALUES:
            raise ParseError(f"response: unknown status {status!r}")
        plan = None
        plan_data = data.get("plan")
        if plan_data is not None:
            if not isinstance(plan_data, Mapping):
                raise ParseError(f"response: bad plan {plan_data!r}")
            plan = plan_from_dict(plan_data, classes)
        seconds = data.get("seconds", 0.0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ParseError(f"response: bad seconds {seconds!r}")
        return cls(
            job_id=str(data.get("id", "")),
            status=status,
            plan=plan,
            seconds=float(seconds),
            cached=bool(data.get("cached", False)),
            backend=data.get("backend"),
            message=str(data.get("message", "")),
            fingerprint=str(data.get("fingerprint", "")),
        )

    @classmethod
    def from_result(cls, result: JobResult) -> "SynthesisResponse":
        return cls(
            job_id=result.job_id,
            status=result.status.value,
            plan=result.plan,
            seconds=result.seconds,
            cached=result.cached,
            backend=result.backend,
            message=result.message,
            fingerprint=result.fingerprint,
        )

    def to_result(self) -> JobResult:
        """The :class:`JobResult` this response describes — what the thin
        client hands back so remote and in-process callers share one type."""
        return JobResult(
            job_id=self.job_id,
            status=JobStatus(self.status),
            plan=self.plan,
            seconds=self.seconds,
            cached=self.cached,
            backend=self.backend,
            message=self.message,
            fingerprint=self.fingerprint,
        )


# ----------------------------------------------------------------------
# errors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ErrorEnvelope:
    """Machine-readable error document, aligned with the CLI exit codes.

    ``code`` is the family name (``parse``, ``infeasible``, ``timeout``,
    ``failure``, ``not_found``) and ``exit_code`` the process exit status a
    local CLI run would have produced for the same failure — a thin client
    exits with it directly.
    """

    code: str
    message: str
    exit_code: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "error": {
                "code": self.code,
                "message": self.message,
                "exit_code": self.exit_code,
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ErrorEnvelope":
        if not isinstance(data, Mapping):
            raise ParseError(f"error envelope: expected an object, got {data!r}")
        check_api_version(data, where="error envelope")
        body = data.get("error")
        if not isinstance(body, Mapping):
            raise ParseError("error envelope: missing 'error' object")
        exit_code = body.get("exit_code", exit_code_for(str(body.get("code", ""))))
        if isinstance(exit_code, bool) or not isinstance(exit_code, int):
            raise ParseError(f"error envelope: bad exit_code {exit_code!r}")
        return cls(
            code=str(body.get("code", "failure")),
            message=str(body.get("message", "")),
            exit_code=exit_code,
        )

    @classmethod
    def from_exception(cls, err: BaseException) -> "ErrorEnvelope":
        exit_code = exit_code_for(err)
        return cls(
            code=error_code(exit_code),
            message=str(err) or type(err).__name__,
            exit_code=exit_code,
        )

    @classmethod
    def not_found(cls, what: str) -> "ErrorEnvelope":
        """A missing resource (unknown or expired job id); exit family 1."""
        return cls(code="not_found", message=what, exit_code=exit_code_for("failure"))

    def raise_(self) -> None:
        """Re-raise this envelope as the exception family it encodes."""
        if self.code == "parse":
            raise ParseError(self.message)
        if self.code == "not_found":
            raise KeyError(self.message)
        raise ReproError(self.message)


# ----------------------------------------------------------------------
# fleet: the work-pull protocol
# ----------------------------------------------------------------------
#: Statuses a runner may report for an executed group — the runner-contract
#: payload statuses of :meth:`repro.service.engine.SynthesisService`.
#: ``queued``/``running``/``cancelled`` are coordinator-side lifecycle
#: states; a completion claiming one is malformed.
PAYLOAD_STATUSES = frozenset(
    (
        JobStatus.DONE.value,
        JobStatus.INFEASIBLE.value,
        JobStatus.TIMEOUT.value,
        JobStatus.ERROR.value,
    )
)


def _require_str(data: Mapping[str, Any], key: str, *, where: str) -> str:
    value = data.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}: missing or empty {key!r}")
    return value


@dataclass(frozen=True)
class LeaseRequest:
    """A runner asking the coordinator for work (``POST /v1/fleet/lease``).

    ``worker_id`` is the runner's self-chosen stable identity: leases and
    heartbeats are held in its name.  ``max_groups`` bounds how many job groups one
    lease call may return; ``wait`` long-polls the coordinator for up to
    that many seconds when no eligible work is queued.
    """

    worker_id: str
    max_groups: int = 1
    wait: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "worker": self.worker_id,
            "max_groups": self.max_groups,
            "wait": self.wait,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseRequest":
        if not isinstance(data, Mapping):
            raise ParseError(f"lease request: expected an object, got {data!r}")
        check_api_version(data, where="lease request")
        worker_id = _require_str(data, "worker", where="lease request")
        max_groups = data.get("max_groups", 1)
        if (
            isinstance(max_groups, bool)
            or not isinstance(max_groups, int)
            or max_groups < 1
        ):
            raise ParseError(
                f"lease request: max_groups must be an integer >= 1, "
                f"got {max_groups!r}"
            )
        wait = data.get("wait", 0.0)
        if (
            isinstance(wait, bool)
            or not isinstance(wait, (int, float))
            or wait != wait  # NaN
            or wait < 0
        ):
            raise ParseError(
                f"lease request: wait must be a non-negative number, got {wait!r}"
            )
        return cls(worker_id=worker_id, max_groups=max_groups, wait=float(wait))


@dataclass(frozen=True)
class LeaseGrant:
    """One leased job group, coordinator → runner.

    Carries everything a runner needs to execute the group with the
    in-process engine: the problem document, the *full* resolved options
    (portfolio, timeout — the runner re-creates the exact execution the
    coordinator would have run locally), and the lease terms —
    ``deadline_seconds`` before an unheartbeated lease is re-enqueued,
    and ``attempt`` (1-based) for observability.

    ``warm_order`` is the delta path's base-plan hint: when the leased
    group came from a delta submission, the coordinator forwards the base
    plan's unit order so the runner warm-starts its search exactly like a
    local execution would (:func:`~repro.net.serialize.unit_order_to_wire`
    on the wire).
    """

    lease_id: str
    fingerprint: str
    problem: Problem
    options: SynthesisOptions
    deadline_seconds: float = 30.0
    attempt: int = 1
    warm_order: Optional[Tuple[Any, ...]] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "api": API_VERSION,
            "lease": self.lease_id,
            "fingerprint": self.fingerprint,
            "problem": problem_to_dict(self.problem),
            "options": options_to_dict(self.options),
            "deadline_seconds": self.deadline_seconds,
            "attempt": self.attempt,
        }
        if self.warm_order is not None:
            out["warm_order"] = unit_order_to_wire(self.warm_order)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseGrant":
        if not isinstance(data, Mapping):
            raise ParseError(f"lease grant: expected an object, got {data!r}")
        check_api_version(data, where="lease grant")
        lease_id = _require_str(data, "lease", where="lease grant")
        problem_data = data.get("problem")
        if not isinstance(problem_data, Mapping):
            raise ParseError("lease grant: missing 'problem' object")
        try:
            problem = problem_from_dict(problem_data)
        except ParseError:
            raise
        except (ReproError, KeyError, TypeError, ValueError, AttributeError) as err:
            raise ParseError(f"lease grant: bad problem: {err!r}") from err
        options_data = data.get("options")
        if not isinstance(options_data, Mapping):
            raise ParseError("lease grant: missing 'options' object")
        options = options_from_dict(options_data)
        deadline = data.get("deadline_seconds", 30.0)
        if (
            isinstance(deadline, bool)
            or not isinstance(deadline, (int, float))
            or deadline <= 0
        ):
            raise ParseError(
                f"lease grant: deadline_seconds must be a positive number, "
                f"got {deadline!r}"
            )
        attempt = data.get("attempt", 1)
        if isinstance(attempt, bool) or not isinstance(attempt, int) or attempt < 1:
            raise ParseError(
                f"lease grant: attempt must be an integer >= 1, got {attempt!r}"
            )
        warm_order = data.get("warm_order")
        if warm_order is not None:
            if not isinstance(warm_order, (list, tuple)):
                raise ParseError(
                    f"lease grant: warm_order must be a list, got {warm_order!r}"
                )
            warm_order = tuple(unit_order_from_wire(warm_order))
        return cls(
            lease_id=lease_id,
            fingerprint=str(data.get("fingerprint", "")),
            problem=problem,
            options=options,
            deadline_seconds=float(deadline),
            attempt=attempt,
            warm_order=warm_order,
        )


@dataclass(frozen=True)
class LeaseCompletion:
    """A runner returning an executed group (``POST /v1/fleet/complete``).

    ``payload`` is the engine's runner-contract result dict — ``status``
    (one of :data:`PAYLOAD_STATUSES`), ``plan`` (a plan document, for
    ``done``), ``seconds``, ``backend``, ``message`` — exactly what a
    local ``_execute_*`` runner would have yielded, so the coordinator
    settles fleet results through the same code path.
    """

    lease_id: str
    worker_id: str
    payload: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "lease": self.lease_id,
            "worker": self.worker_id,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LeaseCompletion":
        if not isinstance(data, Mapping):
            raise ParseError(f"lease completion: expected an object, got {data!r}")
        check_api_version(data, where="lease completion")
        lease_id = _require_str(data, "lease", where="lease completion")
        worker_id = _require_str(data, "worker", where="lease completion")
        payload = data.get("payload")
        if not isinstance(payload, Mapping):
            raise ParseError("lease completion: missing 'payload' object")
        status = payload.get("status")
        if status not in PAYLOAD_STATUSES:
            raise ParseError(
                f"lease completion: payload status must be one of "
                f"{sorted(PAYLOAD_STATUSES)}, got {status!r}"
            )
        plan = payload.get("plan")
        if status == JobStatus.DONE.value and not isinstance(plan, Mapping):
            raise ParseError("lease completion: 'done' payload without a plan")
        if plan is not None and not isinstance(plan, Mapping):
            raise ParseError(f"lease completion: bad plan {plan!r}")
        seconds = payload.get("seconds", 0.0)
        if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
            raise ParseError(f"lease completion: bad seconds {seconds!r}")
        return cls(
            lease_id=lease_id,
            worker_id=worker_id,
            payload=dict(payload),
        )


@dataclass(frozen=True)
class HeartbeatRequest:
    """A runner proving liveness (``POST /v1/fleet/heartbeat``).

    Extends the deadline of every listed lease; the reply names leases the
    coordinator no longer recognizes (already expired and re-enqueued, or
    settled by a sibling) so the runner can abandon them mid-flight.
    """

    worker_id: str
    lease_ids: Tuple[str, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "worker": self.worker_id,
            "leases": list(self.lease_ids),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HeartbeatRequest":
        if not isinstance(data, Mapping):
            raise ParseError(f"heartbeat: expected an object, got {data!r}")
        check_api_version(data, where="heartbeat")
        worker_id = _require_str(data, "worker", where="heartbeat")
        leases = data.get("leases", [])
        if not isinstance(leases, (list, tuple)):
            raise ParseError(f"heartbeat: leases must be a list, got {leases!r}")
        return cls(
            worker_id=worker_id,
            lease_ids=tuple(str(lease) for lease in leases),
        )
