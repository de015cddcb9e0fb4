"""Endorsement issuance and endorsement-policy evaluation.

Signatures are modeled as identity stamps: an endorsement names the peer
that produced it, and policy evaluation trusts the stamp. A peer endorses
what it is sent, so the policy is a threshold: it is satisfied by at least
`threshold` distinct peers whose (read set, write set) payloads are
pairwise equal; as in Fabric, each identity counts once. Peers on one chain
tip share one execution of a proposal, and so one ReadSet and WriteSet. An
envelope keeps the witness's payload and peer ids, not its Endorsements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import ReadSet, WriteSet
from .smallbank import Proposal, execute


@dataclass(slots=True)
class Endorsement:
    txn_id: str
    peer: str
    read_set: ReadSet
    write_set: WriteSet

    def payload_key(self):
        return (self.read_set.key(), self.write_set.key())


def policy_satisfied(threshold: int,
                     endorsements) -> tuple[bool, list[Endorsement]]:
    """Check a threshold policy; returns (satisfied, witnessing subset).

    The witnessing subset is the largest group of payload-identical
    endorsements from distinct peers with size >= threshold; a peer counts
    at most once per group, by its first endorsement. Ties between equally
    large groups break on lexicographic peer identity. Adding an
    endorsement can never turn a satisfied policy unsatisfied.
    """
    endorsements = list(endorsements)
    txn_ids = {e.txn_id for e in endorsements}
    if len(txn_ids) > 1:
        raise ValueError(f"mixed txn ids in policy check: {sorted(txn_ids)}")
    groups: dict[tuple, dict[str, Endorsement]] = {}
    for e in endorsements:
        groups.setdefault(e.payload_key(), {}).setdefault(e.peer, e)
    best = None
    for by_peer in groups.values():
        if len(by_peer) < threshold:
            continue
        group = sorted(by_peer.values(), key=lambda e: e.peer)
        peers = tuple(e.peer for e in group)
        if best is None or (-len(group), peers) < (-len(best), tuple(e.peer for e in best)):
            best = group
    if best is None:
        return False, []
    return True, best


def endorse(proposal: Proposal, ledger, peer_id: str) -> Endorsement:
    """Execute the proposal against the peer's committed state; the
    endorsement is its read and write sets, stamped with the peer's identity.

    Every client's proposal is endorsed: there is no authorization.

    The sets are memoized on the proposal by ledger.tip_hash. A ledger's
    state is a function of its chain and height, and the tip hash names the
    chain up to that height, so the key is exact. Ledgers seeded with
    apply_write_set and no block must not share a Proposal across states.
    """
    sets = proposal.executed.get(ledger.tip_hash)
    if sets is None:
        sets = proposal.executed[ledger.tip_hash] = execute(proposal.op, ledger)
    return Endorsement(txn_id=proposal.txn_id, peer=peer_id,
                       read_set=sets[0], write_set=sets[1])
