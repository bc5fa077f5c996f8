"""Pluggable retention policies for snapshots (and other stored artefacts).

A policy answers one question: *given these stored items, which may be
deleted?*  Items are generic (``key``, monotonic ``order`` — the snapshot
step, or a chronological index for the daemon's persisted results — plus
``bytes`` and ``age_s``), so the same policies prune checkpoint snapshots,
persisted results and journal leftovers.

Semantics follow the usual backup-rotation convention: *keep* rules vote
(an item survives when **any** rule keeps it), the byte budget is applied
afterwards as a hard cap (evicting oldest-first), and the newest item is
always kept no matter what — pruning must never take away the snapshot
``latest()`` resumes from.

``parse_retention`` turns the CLI/server spec string into a policy::

    keep=5                 the newest 5 items
    every=100              items whose order is a multiple of 100
    max-age=7d             items younger than 7 days (s/m/h/d suffixes)
    max-bytes=512M         cap the total size (K/M/G suffixes)
    keep=3,every=50,max-bytes=1G      comma-composition of the above
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Union


@dataclass(frozen=True)
class StoredItem:
    """One prunable artefact, as seen by a retention policy."""

    key: str
    order: int
    bytes: int = 0
    age_s: float = 0.0


class RetentionPolicy:
    """Base: keeps everything; subclasses override :meth:`kept`.

    :meth:`prunable` is the driver: it returns the keys that may be deleted,
    never including the newest (highest ``order``) item.
    """

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        return {item.key for item in items}

    def byte_budget(self) -> Optional[int]:
        return None

    def prunable(self, items: Iterable[StoredItem]) -> Set[str]:
        items = sorted(items, key=lambda item: item.order)
        if not items:
            return set()
        newest = items[-1].key
        kept = self.kept(items) | {newest}
        budget = self.byte_budget()
        if budget is not None:
            survivors = [item for item in items if item.key in kept]
            total = sum(item.bytes for item in survivors)
            for item in survivors:  # oldest first; the newest never evicts
                if total <= budget or item.key == newest:
                    continue
                kept.discard(item.key)
                total -= item.bytes
        return {item.key for item in items} - kept


@dataclass(frozen=True)
class KeepLast(RetentionPolicy):
    """Keep the newest ``count`` items (``count=0`` keeps everything)."""

    count: int

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        if self.count <= 0:
            return {item.key for item in items}
        return {item.key for item in items[-self.count:]}


@dataclass(frozen=True)
class KeepEvery(RetentionPolicy):
    """Keep items whose ``order`` is a multiple of ``stride`` (plus the newest)."""

    stride: int

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        if self.stride <= 1:
            return {item.key for item in items}
        return {item.key for item in items if item.order % self.stride == 0}


@dataclass(frozen=True)
class MaxAge(RetentionPolicy):
    """Keep items younger than ``seconds`` (plus the newest)."""

    seconds: float

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        return {item.key for item in items if item.age_s <= self.seconds}


@dataclass(frozen=True)
class MaxBytes(RetentionPolicy):
    """Cap the total stored bytes; keeps nothing *extra* on its own."""

    limit: int

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        return {item.key for item in items}

    def byte_budget(self) -> Optional[int]:
        return int(self.limit)


class CompositePolicy(RetentionPolicy):
    """Union of keep votes across rules; tightest byte budget wins."""

    def __init__(self, rules: Sequence[RetentionPolicy]) -> None:
        self.rules = list(rules)

    def kept(self, items: Sequence[StoredItem]) -> Set[str]:
        keep_rules = [rule for rule in self.rules if rule.byte_budget() is None]
        if not keep_rules:
            return {item.key for item in items}
        kept: Set[str] = set()
        for rule in keep_rules:
            kept |= rule.kept(items)
        return kept

    def byte_budget(self) -> Optional[int]:
        budgets = [rule.byte_budget() for rule in self.rules]
        budgets = [budget for budget in budgets if budget is not None]
        return min(budgets) if budgets else None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"CompositePolicy({self.rules!r})"


#: Spec value accepted wherever a policy is configurable.
RetentionLike = Union[None, str, RetentionPolicy]

_SIZE_SUFFIXES = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3, "t": 1024 ** 4}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def _parse_scaled(text: str, suffixes, what: str) -> float:
    text = text.strip().lower()
    scale = 1.0
    if text and text[-1] in suffixes:
        scale = suffixes[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError as exc:
        raise ValueError(f"invalid {what} value {text!r}") from exc
    if value < 0:
        raise ValueError(f"{what} must be >= 0")
    return value * scale


def parse_retention(spec: RetentionLike) -> Optional[RetentionPolicy]:
    """Parse a ``keep=N,every=K,max-bytes=SIZE,max-age=AGE`` spec string.

    Accepts an already-built policy (returned as-is) and ``None``/empty
    (no policy).  Unknown terms raise ``ValueError``.
    """
    if spec is None:
        return None
    if isinstance(spec, RetentionPolicy):
        return spec
    text = str(spec).strip()
    if not text:
        return None
    rules: List[RetentionPolicy] = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        if "=" not in term:
            raise ValueError(
                f"invalid retention term {term!r} (expected key=value)"
            )
        key, _, value = term.partition("=")
        key = key.strip().lower().replace("_", "-")
        if key == "keep":
            rules.append(KeepLast(int(value)))
        elif key == "every":
            rules.append(KeepEvery(int(value)))
        elif key == "max-age":
            rules.append(MaxAge(_parse_scaled(value, _AGE_SUFFIXES, "max-age")))
        elif key == "max-bytes":
            rules.append(
                MaxBytes(int(_parse_scaled(value, _SIZE_SUFFIXES, "max-bytes")))
            )
        else:
            raise ValueError(
                f"unknown retention term {key!r} "
                "(known: keep, every, max-age, max-bytes)"
            )
    if not rules:
        return None
    if len(rules) == 1:
        return rules[0]
    return CompositePolicy(rules)


def describe_retention(policy: Optional[RetentionPolicy]) -> str:
    """Round-trippable spec string of a policy (for payloads/diagnostics)."""
    if policy is None:
        return ""
    if isinstance(policy, CompositePolicy):
        return ",".join(
            part for part in (describe_retention(rule) for rule in policy.rules)
            if part
        )
    if isinstance(policy, KeepLast):
        return f"keep={policy.count}"
    if isinstance(policy, KeepEvery):
        return f"every={policy.stride}"
    if isinstance(policy, MaxAge):
        # repr, not %g: the spec string must round-trip the policy exactly
        # (it is shipped to worker processes), and %g truncates to 6
        # significant digits.
        return f"max-age={float(policy.seconds)!r}"
    if isinstance(policy, MaxBytes):
        return f"max-bytes={policy.limit}"
    raise ValueError(f"cannot describe retention policy {policy!r}")


def portable_retention(retention: RetentionLike) -> Optional[str]:
    """``retention`` normalised to its round-trippable spec string (None
    for no policy): the form worker payloads carry it in as JSON.  Raises
    ``ValueError`` for a spec that does not parse or a policy that has no
    spec string."""
    try:
        return describe_retention(parse_retention(retention)) or None
    except ValueError as exc:
        raise ValueError(
            "retention must be expressible as a spec string "
            "(keep=/every=/max-age=/max-bytes= terms) because it is "
            f"shipped to worker processes as JSON: {exc}"
        ) from exc
