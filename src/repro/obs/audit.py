"""Merkle-chained audit bundles: schema ``repro-audit/1``.

A checkpointed guarantee sweep (Section 8, Proposition 11) already
leaves two kinds of evidence: exact rows in the JSONL checkpoint, and --
with provenance on -- a ``repro-explain/1`` derivation of each row's
``post_threshold`` at its witness point (the Section 5 inner-measure
computation behind the ``C^eps phi_CA`` claim).  Neither artifact lets a
third party check the sweep *without recomputing it*: rows do not commit
to their derivations, and derivations do not chain to each other, so a
tampered row or a swapped derivation is undetectable from the files
alone.

An **audit bundle** closes that gap.  It is an append-only JSONL file
(schema ``repro-audit/1``) written alongside the checkpoint:

* a ``header`` record naming the schemas; its canonical hash is the
  chain's genesis value;
* ``node`` records streaming each distinct derivation subtree once,
  children before parents, keyed by the Merkle fingerprints of
  :func:`repro.obs.derivstore.node_fingerprint` (the hash-consed
  ``repro-explain/2`` table, incrementally);
* ``leaf`` records, one per completed row: a **leaf hash** over the
  canonical JSON of (task fingerprint, exact row payload, derivation
  root fingerprint, task index), and a **chain hash** linking it to the
  previous leaf -- ``chain = sha256(prev + leaf_hash)``.

The final chain value is the bundle's *root*: it commits to every row,
every task identity, and (through the root fingerprints, transitively)
every node of every derivation DAG.  Publishing the root alone lets
anyone with the bundle detect a single-bit change anywhere -- the
``oracle_gamble_runner`` / ``verify_audit_chain`` witness-chain idea,
applied to Section 8 sweeps.  ``tools/verifyaudit`` is the replayer.

Like the checkpoint it shadows, a bundle must survive being killed
mid-write.  It is a record log (:mod:`repro.obs.jsonl`):
:func:`read_audit_bundle` drops a torn final line while treating
earlier garbage as the hard error it is, and :class:`AuditBundleWriter`
repairs the file before resuming the chain, so appends always land on a
record boundary and the writer adopts exactly what the reader sees.
Everything is content-pure: no clocks, no pids, no floats (exact
``"p/q"`` strings only, enforced by
:func:`repro.obs.provenance.json_pure`), so two runs of the same sweep
produce byte-identical bundles with identical roots.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import AuditError, ProvenanceError
from .derivstore import EXPLAIN_SCHEMA_2, DerivationStore
from .jsonl import append_record, header_problem, read_records, repair
from .provenance import Derivation, json_pure

__all__ = [
    "AUDIT_SCHEMA",
    "AuditBundle",
    "AuditBundleWriter",
    "bundle_root",
    "chain_hash",
    "genesis_hash",
    "header_record",
    "leaf_hash",
    "read_audit_bundle",
    "verify_bundle",
]

#: Identifier written into (and demanded from) every audit bundle.
AUDIT_SCHEMA = "repro-audit/1"


def _canonical(payload) -> str:
    """The canonical serialisation every audit hash is computed over
    (same convention as the derivation fingerprints)."""
    return json.dumps(payload, sort_keys=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def header_record() -> Dict[str, object]:
    """The bundle's first record: schema markers, nothing else.

    Content-pure by construction -- no clock, no host, no pid -- so the
    genesis hash (and therefore every chain value) is a function of the
    sweep's content alone.
    """
    return {
        "type": "header",
        "schema": AUDIT_SCHEMA,
        "explain_schema": EXPLAIN_SCHEMA_2,
    }


def genesis_hash(header: Dict[str, object]) -> str:
    """The chain's genesis: the hash of the canonical header record."""
    return _sha256(_canonical(json_pure(header)))


def leaf_hash(
    index: int,
    task: Dict[str, object],
    row: Dict[str, object],
    root_ref: Optional[str],
) -> str:
    """The leaf hash of one completed sweep row.

    Deterministic. A pure function of the task fingerprint (the Section 8
    sweep coordinates), the exact row payload, the derivation root
    fingerprint, and the task's position -- the exact quadruple a third
    party can recompute from the checkpoint and the derivation DAG.
    Exact. Payloads pass through :func:`repro.obs.provenance.json_pure`,
    so a float anywhere (a rounded probability) is an error, never a
    silently different hash.
    """
    return _sha256(
        _canonical(
            {
                "index": index,
                "task": json_pure(task),
                "row": json_pure(row),
                "root_ref": root_ref,
            }
        )
    )


def chain_hash(prev: str, leaf: str) -> str:
    """One Merkle chain link: ``sha256(prev + leaf_hash)``.

    Each link commits to the entire prefix, so the final link (the
    bundle *root*) commits to every leaf in order -- remove, reorder, or
    alter any leaf and the root changes.
    """
    return _sha256(prev + leaf)


@dataclass
class AuditBundle:
    """One parsed ``repro-audit/1`` bundle, structure only.

    ``nodes`` preserves file order (children before parents when the
    writer produced the file), ``leaves`` preserves chain order.
    Parsing checks structure; :func:`verify_bundle` checks the hashes.
    """

    header: Dict[str, object]
    nodes: Dict[str, Dict] = field(default_factory=dict)
    leaves: List[Dict] = field(default_factory=list)

    @property
    def genesis(self) -> str:
        return genesis_hash(self.header)

    @property
    def root(self) -> str:
        """The bundle's Merkle root: the last chain value (or genesis)."""
        if self.leaves:
            return str(self.leaves[-1]["chain"])
        return self.genesis

    def leaf_indexes(self) -> FrozenSet[int]:
        """The task indexes with at least one leaf in the bundle."""
        return frozenset(int(leaf["index"]) for leaf in self.leaves)


def bundle_root(path) -> str:
    """The Merkle root of the bundle at ``path`` (structure-checked)."""
    return read_audit_bundle(path).root


_LEAF_KEYS = frozenset({"index", "task", "row", "root_ref", "leaf_hash", "prev", "chain"})


def _parse_record(record: Dict, position: int) -> Tuple[str, Dict]:
    """Classify one record; raise :class:`AuditError` if malformed."""
    if "type" not in record:
        raise AuditError(
            f"audit bundle record {position} is not a typed record"
        )
    kind = record["type"]
    if kind == "header":
        return kind, record
    if kind == "node":
        if not isinstance(record.get("ref"), str) or not isinstance(
            record.get("node"), dict
        ):
            raise AuditError(
                f"audit bundle record {position} is a malformed node record"
            )
        return kind, record
    if kind == "leaf":
        missing = _LEAF_KEYS - set(record)
        if missing:
            raise AuditError(
                f"audit bundle record {position} is a leaf record missing "
                f"{sorted(missing)}"
            )
        return kind, record
    raise AuditError(
        f"audit bundle record {position} has unknown record type {kind!r}"
    )


def read_audit_bundle(path) -> AuditBundle:
    """Parse the ``repro-audit/1`` bundle at ``path``.

    Tolerates exactly one kind of damage -- a torn final line, per the
    record-log rule of :mod:`repro.obs.jsonl` -- by dropping it; the
    surviving prefix is a complete, verifiable bundle (every chain
    prefix is).  Anything else (missing or foreign header, unknown
    record type, structurally incomplete record, garbage before the
    final line) raises :class:`~repro.errors.AuditError`: a bundle is
    evidence, and evidence that does not parse cleanly proves nothing.
    """
    try:
        records = read_records(path, AuditError, "audit bundle")
    except FileNotFoundError:
        raise AuditError(f"audit bundle {os.fspath(path)!r} does not exist") from None
    problem = header_problem(records, AUDIT_SCHEMA)
    if problem:
        raise AuditError(f"audit bundle {os.fspath(path)!r} {problem}")
    bundle = AuditBundle(header=records[0])
    for position, record in enumerate(records[1:], 2):
        kind, record = _parse_record(record, position)
        if kind == "header":
            raise AuditError(
                f"audit bundle record {position} is a second header record"
            )
        if kind == "node":
            bundle.nodes[record["ref"]] = record["node"]
        else:
            bundle.leaves.append(record)
    return bundle


def verify_bundle(bundle: AuditBundle) -> List[str]:
    """Recompute every hash in a bundle; return the list of defects.

    An empty list certifies the bundle's *internal* consistency: every
    node payload hashes to the fingerprint it is filed under and
    references only already-streamed children (so the tables are genuine
    Merkle DAGs), every leaf hash matches its recorded (index, task,
    row, root_ref) content, every chain link extends the previous one
    from the genesis, every referenced derivation root exists, and
    duplicate leaves for one index (a re-run after a torn checkpoint
    tail) agree with each other -- rows are deterministic, so they must.

    What it deliberately does *not* do: re-derive the Section 5/8
    mathematics or compare against the checkpoint.  Those are the
    replayer's jobs (``tools/verifyaudit`` runs
    :func:`repro.logic.explain.audit_derivation` per DAG and
    cross-checks checkpoint rows); this function is the pure-hash tier
    a third party can run with no compute budget.
    """
    defects: List[str] = []
    streamed: Set[str] = set()
    for order, (ref, payload) in enumerate(bundle.nodes.items()):
        recomputed = _sha256(_canonical(payload))
        if recomputed != ref:
            defects.append(
                f"node {order}: payload hashes to {recomputed}, filed under {ref}"
            )
        children = payload.get("children")
        if not isinstance(children, list):
            defects.append(f"node {order} ({ref}): children is not a list")
        else:
            for child in children:
                if child not in streamed:
                    defects.append(
                        f"node {order} ({ref}): child {child} not streamed "
                        "before its parent"
                    )
        streamed.add(ref)
    prev = bundle.genesis
    by_index: Dict[int, Dict] = {}
    for order, leaf in enumerate(bundle.leaves):
        try:
            index = int(leaf["index"])
            recomputed = leaf_hash(index, leaf["task"], leaf["row"], leaf["root_ref"])
        except (ProvenanceError, TypeError, ValueError) as error:
            defects.append(f"leaf {order}: payload is not content-pure: {error}")
            prev = str(leaf["chain"])
            continue
        if recomputed != leaf["leaf_hash"]:
            defects.append(
                f"leaf {order} (index {index}): leaf hash {leaf['leaf_hash']} "
                f"does not match recomputed {recomputed}"
            )
        if leaf["prev"] != prev:
            defects.append(
                f"leaf {order} (index {index}): prev {leaf['prev']} does not "
                f"match running chain {prev}"
            )
        expected_chain = chain_hash(prev, str(leaf["leaf_hash"]))
        if leaf["chain"] != expected_chain:
            defects.append(
                f"leaf {order} (index {index}): chain {leaf['chain']} does not "
                f"match recomputed {expected_chain}"
            )
        root_ref = leaf["root_ref"]
        if root_ref is not None and root_ref not in bundle.nodes:
            defects.append(
                f"leaf {order} (index {index}): derivation root {root_ref} "
                "has no node record"
            )
        earlier = by_index.get(index)
        if earlier is None:
            by_index[index] = leaf
        else:
            for key in ("task", "row", "root_ref"):
                if earlier[key] != leaf[key]:
                    defects.append(
                        f"leaf {order} (index {index}): duplicate leaf "
                        f"disagrees with an earlier one on {key!r} -- rows "
                        "are deterministic, so re-runs must agree"
                    )
        prev = str(leaf["chain"])
    return defects


class AuditBundleWriter:
    """Appends the ``repro-audit/1`` chain for one sweep, durably.

    Mirrors :class:`repro.robustness.checkpoint.SweepCheckpoint`: every
    :meth:`append` writes complete records and fsyncs, so a kill at any
    instant loses at most the leaf being written, and only as a torn
    final line.  Opening an existing bundle *resumes* its chain: the
    file is repaired (:func:`repro.obs.jsonl.repair` -- torn tail cut,
    last record terminated), the last intact leaf's chain value becomes
    the running tip, and node records already streamed are never
    re-emitted (the hash-consing store deduplicates across the kill).
    A file with no intact record starts a fresh chain.  Chain order is
    completion order, not index order -- exactly like checkpoint rows --
    and resumed bundles may carry duplicate leaves for an index whose
    checkpoint row was torn; the verifier checks that such re-runs
    agree.
    """

    def __init__(self, path) -> None:
        self.path = os.fspath(path)
        self._store = DerivationStore()
        self._streamed: Set[str] = set()
        self._indexes: Set[int] = set()
        header = header_record()
        self.genesis = genesis_hash(header)
        self.chain = self.genesis
        if repair(self.path, AuditError, "audit bundle"):
            self._resume(header)
        else:
            append_record(self.path, json_pure(header))

    def _resume(self, header: Dict[str, object]) -> None:
        """Adopt the repaired bundle's chain tip and streamed nodes."""
        bundle = read_audit_bundle(self.path)
        if bundle.header != header:
            raise AuditError(
                f"audit bundle {self.path!r} has header {bundle.header!r}; "
                "refusing to extend a chain with a different genesis"
            )
        self._streamed.update(bundle.nodes)
        self._indexes.update(bundle.leaf_indexes())
        self.chain = bundle.root

    def leaf_indexes(self) -> FrozenSet[int]:
        """The task indexes this bundle already has leaves for.

        What the resuming sweep consults to backfill: a checkpoint row
        whose audit leaf was torn away must be re-chained before new
        rows arrive.
        """
        return frozenset(self._indexes)

    def append(
        self,
        index: int,
        task: Dict[str, object],
        row: Dict[str, object],
        derivation: Optional[Derivation] = None,
    ) -> str:
        """Durably chain one completed row; return the new chain tip.

        ``task`` and ``row`` are the JSON-ready payloads the checkpoint
        records (exact ``"p/q"`` strings); ``derivation`` is the row's
        threshold derivation, hash-consed into the bundle's node table
        (only subtrees never streamed before are written).  The leaf is
        written last, after its nodes, so a kill mid-append can only
        lose the leaf -- never produce a leaf whose DAG is missing.
        """
        root_ref: Optional[str] = None
        if derivation is not None:
            root_ref, new_entries = self._store.add_new(derivation.root)
            for ref, payload in new_entries:
                if ref in self._streamed:
                    continue
                append_record(self.path, {"type": "node", "ref": ref, "node": payload})
                self._streamed.add(ref)
        leaf = leaf_hash(index, task, row, root_ref)
        record = {
            "type": "leaf",
            "index": index,
            "task": json_pure(task),
            "row": json_pure(row),
            "root_ref": root_ref,
            "leaf_hash": leaf,
            "prev": self.chain,
            "chain": chain_hash(self.chain, leaf),
        }
        append_record(self.path, record)
        self.chain = record["chain"]
        self._indexes.add(index)
        return self.chain
