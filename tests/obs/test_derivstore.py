"""The audit bundle's hash-consed node table: lossless, Merkle-keyed.

An audited sweep streams each distinct derivation subtree once into its
``repro-audit/1`` bundle; :func:`repro.obs.audit.node_from_table`
rebuilds derivations from that table.  The standalone
``repro-explain/2`` document format is retired: tracediff rejects it.
"""

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from repro.errors import AuditError, ProvenanceError, TraceError  # noqa: E402
from repro.obs import (  # noqa: E402
    EXPLAIN_SCHEMA,
    AuditBundleWriter,
    Derivation,
    DerivationNode,
    read_audit_bundle,
)
from repro.obs.audit import header_record, node_from_table  # noqa: E402

from tools.tracediff import load_artifact  # noqa: E402
from tools.tracediff.cli import main as tracediff_main  # noqa: E402


def _canonical(payload):
    return json.dumps(payload, sort_keys=True)


def _task(index):
    return {"protocol": "CA1", "messengers": index + 1, "loss": "1/2"}


def _row(index):
    return {"protocol": "CA1", "messengers": index + 1, "post_threshold": "1/2"}


def _bundle_of(directory, *derivations):
    """Chain one row per derivation into ``directory/s.audit``."""
    path = Path(directory) / "s.audit"
    writer = AuditBundleWriter(path)
    for index, derivation in enumerate(derivations):
        writer.append(index, _task(index), _row(index), derivation)
    return read_audit_bundle(path)


def _node_records(path):
    lines = Path(path).read_text().splitlines()
    return [record for record in map(json.loads, lines) if record["type"] == "node"]


def _rebuilt(bundle, derivation, position=0):
    root = node_from_table(bundle.nodes, bundle.leaves[position]["root_ref"])
    return Derivation(
        assignment=derivation.assignment,
        formula=derivation.formula,
        point=derivation.point,
        root=root,
    )


def _round_trip(derivation):
    with tempfile.TemporaryDirectory() as directory:
        return _bundle_of(directory, derivation)


# ----------------------------------------------------------------------
# Hypothesis strategy: arbitrary derivation trees with shared shapes
# ----------------------------------------------------------------------

_points = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {
            "bit": st.integers(min_value=0, max_value=7),
            "time": st.integers(min_value=0, max_value=3),
            "label": st.sampled_from(["(r0, 0)", "(r1, 1)", "(r2, 2)"]),
        }
    ),
)

_details = st.fixed_dictionaries(
    {},
    optional={
        "measure": st.fractions(min_value=0, max_value=1),
        "count": st.integers(min_value=0, max_value=9),
        "witness": st.lists(st.integers(min_value=0, max_value=7), max_size=3),
    },
)


def _node_builder(children):
    return st.builds(
        DerivationNode,
        rule=st.sampled_from(["prop", "knows", "pr-at-least", "cell", "gfp-step"]),
        formula=st.sampled_from(["heads", "K0 heads", "Pr0(coord) >= 1/2", "C_G^a coord"]),
        point=_points,
        holds=st.booleans(),
        definition=st.sampled_from(["Section 4", "Section 5", "Theorem 7"]),
        detail=_details,
        children=children,
    )


_nodes = st.recursive(
    _node_builder(st.just(())),
    lambda inner: _node_builder(st.lists(inner, min_size=1, max_size=3).map(tuple)),
    max_leaves=10,
)

_derivations = st.builds(
    Derivation,
    assignment=st.sampled_from(["post", "fut", "prior"]),
    formula=st.sampled_from(["K0 heads", "Pr0(coord) >= 1/2"]),
    point=_points,
    root=_nodes,
)


def wide_derivation(copies=6):
    """One shared subtree referenced ``copies`` times: the dedup case."""
    shared = DerivationNode(
        rule="cell",
        formula="heads",
        point={"bit": 0, "time": 1, "label": "(r0, 1)"},
        holds=True,
        definition="Section 5",
        detail={"measure": Fraction(1, 2), "mask": 0b1010},
        children=(
            DerivationNode(
                rule="prop",
                formula="heads",
                point={"bit": 0, "time": 0, "label": "(r0, 0)"},
                holds=True,
                definition="Section 5",
            ),
        ),
    )
    root = DerivationNode(
        rule="gfp-step",
        formula="C_G^a coord",
        point={"bit": 1, "time": 1, "label": "(r1, 1)"},
        holds=True,
        definition="Section 8",
        children=tuple(shared for _ in range(copies)),
    )
    return Derivation(
        assignment="post",
        formula="C_G^a coord",
        point={"bit": 1, "time": 1, "label": "(r1, 1)"},
        root=root,
    )


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(_derivations)
    def test_upgrade_downgrade_is_byte_identity(self, derivation):
        # append -> rebuild reproduces the repro-explain/1 canonical
        # bytes exactly, for arbitrary derivation trees
        bundle = _round_trip(derivation)
        back = _rebuilt(bundle, derivation)
        assert _canonical(back.json_ready()) == _canonical(derivation.json_ready())

    @settings(max_examples=60, deadline=None)
    @given(_derivations)
    def test_fingerprint_is_invariant_under_the_bridge(self, derivation):
        bundle = _round_trip(derivation)
        assert _rebuilt(bundle, derivation).fingerprint() == derivation.fingerprint()

    @settings(max_examples=40, deadline=None)
    @given(_derivations)
    def test_node_fingerprint_equals_stored_ref(self, derivation):
        # every ref is the SHA-256 of its canonical payload, and every
        # entry rebuilds to a subtree that re-appends under the same ref
        bundle = _round_trip(derivation)
        for ref, payload in bundle.nodes.items():
            digest = hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()
            assert digest == ref
            node_from_table(bundle.nodes, ref)
        assert bundle.leaves[0]["root_ref"] in bundle.nodes

    def test_upgrade_passes_v2_through(self, tmp_path):
        # a resumed writer adopts the streamed table: the same
        # derivation appended after reopening streams no node records
        path = tmp_path / "s.audit"
        _bundle_of(tmp_path, wide_derivation())
        before = _node_records(path)
        AuditBundleWriter(path).append(1, _task(1), _row(1), wide_derivation())
        assert _node_records(path) == before

    def test_downgrade_passes_v1_through(self, tmp_path):
        # a repro-explain/1 document is what tracediff still reads
        doc_1 = wide_derivation().json_ready()
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc_1, sort_keys=True) + "\n")
        kind, payload = load_artifact(str(path))
        assert kind == "explain"
        assert payload.json_ready() == doc_1


class TestHashConsing:
    def test_shared_subtrees_stored_once(self, tmp_path):
        bundle = _bundle_of(tmp_path, wide_derivation(copies=6))
        # root + shared cell + its prop leaf: 3 distinct subtrees,
        # though the tree form writes the cell and leaf 6 times each
        assert len(bundle.nodes) == 3
        assert len(_node_records(tmp_path / "s.audit")) == 3

    def test_store_counts_added_and_deduped(self, tmp_path):
        # a second append of the same derivation streams no node records
        path = tmp_path / "s.audit"
        writer = AuditBundleWriter(path)
        writer.append(0, _task(0), _row(0), wide_derivation(copies=6))
        assert len(_node_records(path)) == 3
        writer.append(1, _task(1), _row(1), wide_derivation(copies=6))
        assert len(_node_records(path)) == 3
        bundle = read_audit_bundle(path)
        assert bundle.leaves[0]["root_ref"] == bundle.leaves[1]["root_ref"]

    def test_encoding_wins_on_wide_derivations(self, tmp_path):
        derivation = wide_derivation(copies=6)
        bundle = _bundle_of(tmp_path, derivation)
        table_bytes = sum(len(_canonical(payload)) for payload in bundle.nodes.values())
        assert table_bytes < len(_canonical(derivation.json_ready()))

    def test_encode_many_shares_across_derivations(self, tmp_path):
        # two rows sharing a subtree stream it once
        first = wide_derivation(copies=2)
        second = wide_derivation(copies=3)
        bundle = _bundle_of(tmp_path, first, second)
        # first: root, cell, prop; second: only its own root
        assert len(bundle.nodes) == 4
        assert [
            _rebuilt(bundle, d, position).fingerprint()
            for position, d in enumerate((first, second))
        ] == [first.fingerprint(), second.fingerprint()]


class TestMalformedDocuments:
    def test_dangling_reference_is_an_error(self, tmp_path):
        bundle = _bundle_of(tmp_path, wide_derivation())
        root_ref = bundle.leaves[0]["root_ref"]
        del bundle.nodes[root_ref]
        with pytest.raises(ProvenanceError):
            node_from_table(bundle.nodes, root_ref)

    def test_missing_field_is_an_error(self, tmp_path):
        bundle = _bundle_of(tmp_path, wide_derivation())
        root_ref = bundle.leaves[0]["root_ref"]
        del bundle.nodes[root_ref]["rule"]
        with pytest.raises(ProvenanceError):
            node_from_table(bundle.nodes, root_ref)

    def test_non_reference_children_are_an_error(self, tmp_path):
        bundle = _bundle_of(tmp_path, wide_derivation())
        root_ref = bundle.leaves[0]["root_ref"]
        bundle.nodes[root_ref]["children"] = [42]
        with pytest.raises(ProvenanceError):
            node_from_table(bundle.nodes, root_ref)

    def test_reference_cycle_is_an_error(self, tmp_path):
        bundle = _bundle_of(tmp_path, wide_derivation())
        root_ref = bundle.leaves[0]["root_ref"]
        bundle.nodes[root_ref]["children"] = [root_ref]
        with pytest.raises(ProvenanceError, match="cycle"):
            node_from_table(bundle.nodes, root_ref)

    def test_unknown_schema_is_an_error(self, tmp_path):
        # the header's explain_schema is part of the genesis: a bundle
        # naming another node-table encoding is never extended
        header = header_record()
        assert header["explain_schema"] == "repro-explain/2"
        header["explain_schema"] = "repro-explain/9"
        path = tmp_path / "s.audit"
        path.write_text(json.dumps(header, sort_keys=True) + "\n")
        with pytest.raises(AuditError):
            AuditBundleWriter(path)

    def test_multi_root_document_points_at_decode_derivations(self, tmp_path, capsys):
        # standalone multi-root repro-explain/2 documents are retired
        bundle = _bundle_of(tmp_path, wide_derivation())
        document = {
            "schema": "repro-explain/2",
            "roots": [{"root": bundle.leaves[0]["root_ref"]}],
            "nodes": bundle.nodes,
        }
        path = tmp_path / "dag.json"
        path.write_text(json.dumps(document, sort_keys=True) + "\n")
        with pytest.raises(TraceError, match="repro-explain/2"):
            load_artifact(str(path))
        assert tracediff_main([str(path), str(path)]) == 2
        assert "repro-explain/2" in capsys.readouterr().err

    def test_decode_accepts_both_schemas(self, tmp_path):
        # /1 still loads; a single-root /2 document is rejected by name
        derivation = wide_derivation()
        bundle = _bundle_of(tmp_path, derivation)
        doc_1 = tmp_path / "d1.json"
        doc_1.write_text(json.dumps(derivation.json_ready(), sort_keys=True))
        kind, payload = load_artifact(str(doc_1))
        assert kind == "explain"
        assert payload.json_ready()["schema"] == EXPLAIN_SCHEMA
        assert payload.fingerprint() == _rebuilt(bundle, derivation).fingerprint()
        doc_2 = tmp_path / "d2.json"
        doc_2.write_text(
            json.dumps(
                {
                    "schema": "repro-explain/2",
                    "root": bundle.leaves[0]["root_ref"],
                    "nodes": bundle.nodes,
                },
                sort_keys=True,
            )
        )
        with pytest.raises(TraceError, match="repro-explain/2"):
            load_artifact(str(doc_2))
