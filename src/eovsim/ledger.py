"""Hash-chained block store and versioned world state, one instance per peer.

Digests are truncated blake2b over a canonical byte encoding: stable across
processes and platforms, collision-safe at simulation scale. Cryptographic
strength is irrelevant here (no adversaries), only determinism matters.

State values are signed 64-bit integers keyed by short strings such as
"cust/17/checking". A version is the (block height, txn index) pair that last
wrote the key; comparison is lexicographic.

A Block carries its validation outcome, as a Fabric block carries its
transactions filter in its metadata: `flags`, one per txn, and `writes`, the
valid (key, (value, version)) pairs in block order. The first peer to commit
the block fills both (committer.Peer); every later peer appends the block on
the same prev_hash, so on the same state, and applies the same writes.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import Iterator

Version = tuple[int, int]

GENESIS_PREV_HASH = "0" * 32


class ChainIntegrityError(RuntimeError):
    """Height gap or prev-hash mismatch: a simulation bug, fail fast."""


def _entry_hash(key: str, entry: tuple[int, Version]) -> int:
    value, (bh, ti) = entry
    data = key.encode() + b"=" + struct.pack(">qQQ", value, bh, ti)
    return int.from_bytes(hashlib.blake2b(data, digest_size=16).digest(),
                          "big")


class CutReason(enum.Enum):
    COUNT_THRESHOLD = "CountThreshold"
    TIMEOUT = "Timeout"
    SIZE_THRESHOLD = "SizeThreshold"


@dataclass(slots=True)
class ReadSet:
    """Keys read with the version observed; None marks an absent key."""

    reads: list[tuple[str, Version | None]] = field(default_factory=list)

    def key(self):
        return tuple(self.reads)


@dataclass(slots=True)
class WriteSet:
    writes: list[tuple[str, int]] = field(default_factory=list)

    def key(self):
        return tuple(self.writes)


@dataclass(slots=True)
class Block:
    height: int
    prev_hash: str
    txns: list  # ordered Envelopes
    cut_reason: CutReason
    created_at: int
    # the validation outcome: one flag per txn, and the valid writes as
    # (key, (value, version)) pairs. The first peer to commit the block
    # fills both; genesis is built with its flags and no writes.
    flags: list | None = field(default=None, repr=False, compare=False)
    writes: list | None = field(default=None, repr=False, compare=False)

    def txn_ids(self) -> list[str]:
        return [t.txn_id for t in self.txns]


def hash_block(block: Block) -> str:
    """Deterministic digest over (height, prev_hash, txn ids, cut_reason)."""
    h = hashlib.blake2b(digest_size=16)
    h.update(block.height.to_bytes(8, "big"))
    h.update(block.prev_hash.encode())
    for txn_id in block.txn_ids():
        h.update(b"\x00")
        h.update(txn_id.encode())
    h.update(block.cut_reason.value.encode())
    return h.hexdigest()


class Ledger:
    """Per-peer chain plus committed world state.

    The world state has two layers: the base is shared read-only; the
    overlay is the peer's own. Every write goes to the overlay, and a read
    tries the overlay before the base. fork() freezes the overlay into the
    base it then shares with the new ledger, so N peers forked from one
    genesis ledger hold one copy of the genesis state between them (path
    copying: Driscoll, Sarnak, Sleator and Tarjan, JCSS 1989).
    """

    def __init__(self):
        self.blocks: list[Block] = []
        self.tip_hash = GENESIS_PREV_HASH
        # the shared base, never written once shared, and the own overlay
        self._base: dict[str, tuple[int, Version]] = {}
        self._state: dict[str, tuple[int, Version]] = {}

    @property
    def height(self) -> int:
        return len(self.blocks) - 1

    def append_block(self, block: Block) -> None:
        if block.height != self.height + 1:
            raise ChainIntegrityError(
                f"append height {block.height}, expected {self.height + 1}")
        if block.prev_hash != self.tip_hash:
            raise ChainIntegrityError(
                f"prev_hash mismatch at height {block.height}")
        if not block.txns:
            raise ChainIntegrityError("blocks must carry at least one txn")
        if block.flags is None or len(block.flags) != len(block.txns):
            raise ChainIntegrityError("append_block needs one flag per txn")
        self.blocks.append(block)
        self.tip_hash = hash_block(block)

    def read_state(self, key: str) -> tuple[int, Version] | None:
        """Committed (value, version), or None; absence is a normal outcome."""
        entry = self._state.get(key)
        return self._base.get(key) if entry is None else entry

    def fork(self) -> "Ledger":
        """Independent ledger sharing this one's state as its base; blocks
        are shared too, and a block's outcome is filled before any ledger
        appends it. Later writes to either ledger go to its own overlay and
        never reach the other."""
        if self._state:
            self._base = ({**self._base, **self._state} if self._base
                          else self._state)
            self._state = {}
        other = Ledger()
        other.blocks = list(self.blocks)
        other.tip_hash = self.tip_hash
        other._base = self._base
        return other

    def apply_write_set(self, ws: WriteSet, at: Version) -> None:
        """Write every (key, value) at version `at`. The entries are
        immutable, so every key written with one value shares one
        (value, at) entry: a genesis load of equal balances stores one."""
        state = self._state
        entries: dict[int, tuple[int, Version]] = {}
        for key, value in ws.writes:
            entry = entries.get(value)
            if entry is None:
                entry = entries[value] = (value, at)
            state[key] = entry

    def apply_writes(self, writes: list[tuple[str, tuple[int, Version]]]) -> None:
        """Apply (key, (value, version)) pairs in order; a later pair for a
        key wins, as with one apply_write_set per txn."""
        self._state.update(writes)

    def state_digest(self) -> str:
        """Order-independent XOR fold over all effective entries, taken on
        each call; equal states give equal digests."""
        acc = 0
        for key, entry in self.state_items():
            acc ^= _entry_hash(key, entry)
        return f"{acc:032x}"

    def agrees_with(self, other: "Ledger") -> bool:
        """Same chain, the same flag for every txn, block by block, and the
        same world state, compared exactly. On a shared base only the
        overlays' keys can differ."""
        if self.tip_hash != other.tip_hash or any(
                mine.flags != theirs.flags
                for mine, theirs in zip(self.blocks, other.blocks)):
            return False
        mine, theirs = self._state, other._state
        if self._base is other._base:
            return mine == theirs or all(
                self.read_state(key) == other.read_state(key)
                for key in mine.keys() | theirs.keys())
        return dict(self.state_items()) == dict(other.state_items())

    def state_items(self) -> Iterator[tuple[str, tuple[int, Version]]]:
        """Every effective (key, entry): unshadowed base entries, then the
        overlay's."""
        overlay = self._state
        for key, entry in self._base.items():
            if key not in overlay:
                yield key, entry
        yield from overlay.items()

    def trace_lines(self) -> Iterator[str]:
        """One JSON line per block: height, cut reason, txn ids, validity flags."""
        for block in self.blocks:
            yield json.dumps({
                "height": block.height,
                "cut_reason": block.cut_reason.value,
                "created_at_us": block.created_at,
                "txn_ids": block.txn_ids(),
                "valid": [f.value for f in block.flags],
            }, sort_keys=True)
