"""Builds a topology from a config, runs it to quiescence, and reports.

Every node reads its settings and the ids it sends to from the run's one
ExperimentConfig. Every peer is a committer.Peer; the endorsing ones are
those the clients send proposals to. Only the log leader is a BrokerNode:
the other brokers receive no event and are bare Nodes, link endpoints.
The genesis state is the workload's rule (smallbank.Genesis), held by the
run's one chain; the genesis block is one unendorsed envelope that writes
nothing. It commits through commit_block, validated at threshold 0, and
every peer's ledger is then a fork of the genesis ledger: height 0 on the
run's one chain (ledger.Ledger). collect_report builds the RunReport in one
place: chain, flag and state figures from the observer peer's (peer000)
ledger, whose blocks' flags from height 1 on give valid_txns,
policy_violations and mvcc_conflicts; journey figures from
metrics.aggregate; each node's traffic from its links (Engine.traffic).
Peers agree when their ledgers equal the observer's: the same chain at the
same height. Clients spray envelopes over orderers round-robin by
submission index and observe commits through their round-robin home peer.
Each orderer counts the enqueue attempts and successes it handles before
the window end; there is no monitor node.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from .committer import Peer, ValidationFlag, commit_block
from .config import ExperimentConfig
from .driver import ClientNode, TxnJourney, submission_times
from .engine import Engine, Node, NodeClass, TraceSummary
from .ledger import (GENESIS_PREV_HASH, Block, Chain, CutReason, Ledger,
                     ReadSet, WriteSet)
from .metrics import RunReport, aggregate
from .ordering import BlockCutter, BrokerNode, Envelope, OrdererNode
from .smallbank import Genesis, generate, total_balance

GENESIS_TXN_ID = "genesis-load"


@dataclass
class Simulation:
    config: ExperimentConfig
    engine: Engine
    clients: list[ClientNode]
    endorsing: list[Peer]
    non_endorsing: list[Peer]
    orderers: list[OrdererNode]
    brokers: list[Node]  # the leader's BrokerNode, then bare Nodes

    def all_peers(self):
        return self.endorsing + self.non_endorsing


def genesis_block() -> Block:
    load = Envelope(txn_id=GENESIS_TXN_ID, endorsers=(), read_set=ReadSet(),
                    write_set=WriteSet(), client="")
    return Block(height=0, prev_hash=GENESIS_PREV_HASH, txns=[load],
                 cut_reason=CutReason.COUNT_THRESHOLD, created_at=0)


def build(cfg: ExperimentConfig) -> Simulation:
    engine = Engine(cfg.latency, seed=cfg.seed)
    workload = cfg.workload
    genesis_ledger = Ledger(Chain(genesis=Genesis(workload.n_accounts,
                                                  workload.initial_balance)))
    commit_block(genesis_ledger, genesis_block(), 0)

    peers = [Peer(pid, cfg, genesis_ledger.fork())
             for pid in cfg.peer_ids + cfg.npeer_ids]
    endorsing, non_endorsing = peers[:cfg.peers], peers[cfg.peers:]
    for i, npeer in enumerate(non_endorsing):
        endorsing[i % cfg.peers].gossip_targets.append(npeer.id)

    orderers = [OrdererNode(oid, cfg) for oid in cfg.orderer_ids]
    cutter = BlockCutter(cfg, next_height=1, prev_hash=genesis_ledger.tip_hash)
    brokers = [BrokerNode(cfg, cutter) if bid == cfg.leader_id
               else Node(bid, NodeClass.BROKER) for bid in cfg.broker_ids]

    plan = len(submission_times(cfg))
    clients = [ClientNode(cid, cfg, generate(cfg.workload, plan, client=cid))
               for cid in cfg.client_ids]
    for i, cid in enumerate(cfg.client_ids):
        endorsing[i % cfg.peers].home_clients.append(cid)

    for node in peers + orderers + brokers + clients:
        engine.add_node(node)

    for client in clients:
        client.arm()

    return Simulation(config=cfg, engine=engine, clients=clients,
                      endorsing=endorsing, non_endorsing=non_endorsing,
                      orderers=orderers, brokers=brokers)


@dataclass
class RunResult:
    report: RunReport
    journeys: list[TxnJourney]
    sim: Simulation
    trace: TraceSummary


def run_simulation(cfg: ExperimentConfig) -> RunResult:
    sim = build(cfg)
    limit = cfg.duration_us + cfg.drain_limit_us
    trace = sim.engine.run_until_quiescent(limit)

    if any([client.finish_open_journeys(limit) for client in sim.clients]):
        trace = replace(trace, truncated=True)  # a timeout past the limit
    journeys = [j for client in sim.clients for j in client.journeys.values()]

    report = collect_report(sim, trace, journeys)
    return RunResult(report=report, journeys=journeys, sim=sim, trace=trace)


def collect_report(sim: Simulation, trace: TraceSummary,
                   journeys: list[TxnJourney]) -> RunReport:
    cfg = sim.config
    peers = sim.all_peers()
    ledger = peers[0].ledger  # the observer peer's
    workload_blocks = ledger.blocks[1:]  # exclude genesis
    flag_totals = Counter(flag for block in workload_blocks
                          for flag in block.flags)
    reasons = {reason.value: 0 for reason in CutReason}
    for block in workload_blocks:
        reasons[block.cut_reason.value] += 1
    fills = [len(b.txns) for b in workload_blocks]

    attempts_window = sum(o.window_attempts for o in sim.orderers)
    successes_window = sum(o.window_successes for o in sim.orderers)
    attempts_final = sum(o.enqueue_attempts for o in sim.orderers)
    successes_final = sum(o.enqueue_successes for o in sim.orderers)

    traffic = sim.engine.traffic()
    per_node = {node.id: {"class": node.klass.value, **traffic[node.id]}
                for node in sim.engine.nodes.values()}

    return RunReport(
        config=cfg.resolved(),
        seed=cfg.seed,
        window_start_us=cfg.warmup_us,
        window_end_us=cfg.duration_us,
        **aggregate(journeys, (cfg.warmup_us, cfg.duration_us)),
        enqueue_attempts_window=attempts_window,
        enqueue_successes_window=successes_window,
        r_ratio=(attempts_window / successes_window
                 if successes_window else None),
        enqueue_attempts_final=attempts_final,
        enqueue_successes_final=successes_final,
        refusals=sum(o.refusals for o in sim.orderers),
        r_ratio_final=(attempts_final / successes_final
                       if successes_final else None),
        blocks=len(workload_blocks),
        mean_block_fill=sum(fills) / len(fills) if fills else None,
        cut_reasons=reasons,
        valid_txns=flag_totals[ValidationFlag.VALID],
        policy_violations=flag_totals[ValidationFlag.POLICY_VIOLATION],
        mvcc_conflicts=flag_totals[ValidationFlag.MVCC_CONFLICT],
        final_height=ledger.height,
        tip_hash=ledger.tip_hash,
        state_digest=ledger.state_digest(),
        all_peers_agree=all(p.ledger == ledger for p in peers[1:]),
        total_balance=total_balance(ledger),
        events_dispatched=trace.events_dispatched,
        dispatch_digest=trace.dispatch_digest,
        end_time_us=trace.end_time_us,
        truncated=trace.truncated,
        per_node=per_node,
    )
