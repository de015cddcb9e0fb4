import itertools
import random

import pytest

from eovsim.endorser import (Endorsement, EndorsementPolicy, endorse,
                             policy_satisfied)
from eovsim.ledger import Ledger, ReadSet, WriteSet
from eovsim.smallbank import (OpKind, Proposal, SmallbankOp, WorkloadConfig,
                              execute, initial_write_set)


def seeded_ledger(n_accounts=4):
    ledger = Ledger()
    cfg = WorkloadConfig(n_accounts=n_accounts, seed=0)
    ledger.apply_write_set(initial_write_set(cfg), (0, 0))
    return ledger


def mk_endorsement(peer, txn_id="t0", payload=0):
    return Endorsement(txn_id=txn_id, peer=peer,
                       read_set=ReadSet([("k", (0, payload))]),
                       write_set=WriteSet([("k", payload)]))


def test_endorse_query_has_empty_write_set():
    ledger = seeded_ledger()
    proposal = Proposal("t1", "client000", SmallbankOp(OpKind.QUERY, (1,)))
    result = endorse(proposal, ledger, "peer000")
    assert result.write_set.writes == []
    assert result.peer == "peer000"


def test_two_peers_same_state_identical_rw_sets():
    a, b = seeded_ledger(), seeded_ledger()
    proposal = Proposal("t2", "c", SmallbankOp(OpKind.SEND_PAYMENT, (0, 1), 7))
    ea = endorse(proposal, a, "peer000")
    eb = endorse(proposal, b, "peer001")
    assert ea.payload_key() == eb.payload_key()


def test_endorsement_reflects_state_at_issuance():
    ledger = seeded_ledger()
    proposal = Proposal("t3", "c", SmallbankOp(OpKind.DEPOSIT_CHECKING, (2,), 3))
    result = endorse(proposal, ledger, "peer000")
    rs, ws, _resp = execute(proposal.op, ledger)
    assert (tuple(rs.reads), tuple(ws.writes)) == result.payload_key()


def test_policy_all_peers_threshold():
    policy = EndorsementPolicy(("p0", "p1", "p2", "p3"), 4)
    full = [mk_endorsement(p) for p in policy.required]
    ok, witness = policy_satisfied(policy, full)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p1", "p2", "p3"]

    ok, witness = policy_satisfied(policy, full[:3])
    assert not ok and witness == []


def test_policy_divergent_write_set_breaks_full_match():
    policy = EndorsementPolicy(("p0", "p1", "p2", "p3"), 4)
    endorsements = [mk_endorsement(p) for p in ("p0", "p1", "p2")]
    endorsements.append(mk_endorsement("p3", payload=9))
    ok, _ = policy_satisfied(policy, endorsements)
    assert not ok
    # a lower threshold is satisfied by the matching trio
    lower = EndorsementPolicy(("p0", "p1", "p2", "p3"), 3)
    ok, witness = policy_satisfied(lower, endorsements)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p1", "p2"]


def test_policy_ignores_peers_outside_required_set():
    policy = EndorsementPolicy(("p0", "p1"), 2)
    endorsements = [mk_endorsement("p0"), mk_endorsement("outsider")]
    ok, _ = policy_satisfied(policy, endorsements)
    assert not ok


def test_policy_mixed_txn_ids_fail_fast():
    policy = EndorsementPolicy(("p0", "p1"), 1)
    with pytest.raises(ValueError):
        policy_satisfied(policy, [mk_endorsement("p0", txn_id="a"),
                                  mk_endorsement("p1", txn_id="b")])


def test_policy_tie_breaks_on_lexicographic_peers():
    policy = EndorsementPolicy(("p0", "p1", "p2", "p3"), 2)
    endorsements = [mk_endorsement("p1", payload=1), mk_endorsement("p3", payload=1),
                    mk_endorsement("p0", payload=2), mk_endorsement("p2", payload=2)]
    ok, witness = policy_satisfied(policy, endorsements)
    assert ok
    assert [e.peer for e in witness] == ["p0", "p2"]


def oracle_satisfiable(policy, endorsements):
    """Brute force: any subset of size >= threshold, required peers only,
    all payloads equal."""
    usable = [e for e in endorsements if e.peer in policy.required]
    for size in range(policy.threshold, len(usable) + 1):
        for subset in itertools.combinations(usable, size):
            if len({e.payload_key() for e in subset}) == 1:
                return True
    return False


def random_endorsements(rng, peers=5):
    out = []
    for i in range(rng.randint(0, 6)):
        out.append(mk_endorsement(f"p{rng.randrange(peers)}",
                                  payload=rng.randrange(3)))
    # policy evaluation deduplicates nothing; the client dedupes by peer,
    # so feed unique peers here
    unique = {}
    for e in out:
        unique[e.peer] = e
    return list(unique.values())


def test_policy_matches_brute_force_oracle():
    rng = random.Random(42)
    for _ in range(400):
        n_required = rng.randint(1, 5)
        required = tuple(f"p{i}" for i in range(n_required))
        policy = EndorsementPolicy(required, rng.randint(1, n_required))
        endorsements = random_endorsements(rng)
        ok, witness = policy_satisfied(policy, endorsements)
        assert ok == oracle_satisfiable(policy, endorsements)
        if ok:
            assert len(witness) >= policy.threshold
            assert len({e.payload_key() for e in witness}) == 1
            assert all(e.peer in policy.required for e in witness)


def test_policy_monotonic_under_added_endorsements():
    rng = random.Random(43)
    for _ in range(300):
        required = tuple(f"p{i}" for i in range(4))
        policy = EndorsementPolicy(required, rng.randint(1, 4))
        pool = [mk_endorsement(f"p{i}", payload=rng.randrange(2))
                for i in range(4)]
        rng.shuffle(pool)
        satisfied = False
        for upto in range(1, len(pool) + 1):
            ok, _ = policy_satisfied(policy, pool[:upto])
            assert not (satisfied and not ok), "satisfied policy flipped back"
            satisfied = ok
