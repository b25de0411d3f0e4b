"""What must not reappear under ``src/``: the object oracle and the npz layout.

The arrays are the synopsis.  The per-node object executor, the refresh that
dragged node / stratum objects after the arrays, the second ``FlatSynopsis``
constructor and the ``tree/* strata/* samples/* reservoir/*`` npz vocabulary
were deleted, as were the helpers a synopsis was unwrapped with
(``_pass_of`` / ``_flat_of``: a ``DynamicPASS`` is a ``PASSSynopsis`` is a
``FlatSynopsis``), and the sharded scatter-gather — its merge math, its
subquery fan-out and every branch on ``is_sharded`` (a shard is a subtree of
one stitched tree); the scalar per-row binary search of the ADP partitioner
and the object tree the builder used to assemble (``PartitionTree`` /
``PartitionNode``, one ``Box.mask`` scan per leaf) live on only as
references in ``tests/oracle.py``.  Publishing is saving: the
shared-memory segments, the seqlock epoch register with its timeout and the
resource-tracker workaround gave way to generation files named by a
manifest.  This is the grep a re-anchor would otherwise run by hand.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted(SRC.rglob("*.py"))

DELETED_NAMES = re.compile(
    r"query_object|sketch_union_object|_refresh_objects|_objects_at"
    r"|minimal_coverage_frontier|MCFResult|_ExternalGeometry"
    r"|boxes_to_arrays|boxes_from_arrays|_binary_search_split"
    r"|PartitionTree|PartitionNode|build_from_leaves|_TreeGeometry"
    r"|_pass_of|_flat_of"
    r"|_merge_additive|_merge_avg|_merge_extremum|_gather_union|_subqueries"
    r"|is_sharded"
    r"|grouped_leaf_moments|assemble_cell_row|_stratified_total|hard_bounds_rows"
    r"|SynopsisSegment|_attach_untracked|_segment_name|EpochReadTimeout"
    r"|REGISTER_MAGIC|_REGISTER_CAPACITY|_SPIN_INTERVAL|_MAX_ODD_READS"
    r"|_SEQ_OFFSET|_LEN_OFFSET|_PAYLOAD_OFFSET|shared_memory"
    r"|_population_for_entry|_prune_for_entry"
    r"|_RowBounds|_answer_group|_sum_count_totals"
)
NPZ_KEY_PREFIXES = re.compile(r"\"(tree|strata|samples|reservoir)/")


def _hits(pattern: re.Pattern) -> list[str]:
    return [
        f"{path.relative_to(SRC)}:{number}: {line.strip()}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_the_sources_are_where_this_test_thinks():
    assert len(SOURCES) > 50 and SRC / "repro" / "core" / "soa.py" in SOURCES


def test_deleted_names_do_not_reappear():
    assert _hits(DELETED_NAMES) == []


def test_the_builder_scans_the_table_once():
    """Leaf membership comes from one assignment pass, never a mask per leaf."""
    source = (SRC / "repro" / "core" / "builder.py").read_text()
    assert ".mask(" not in source


def test_npz_key_vocabulary_does_not_reappear():
    assert _hits(NPZ_KEY_PREFIXES) == []


def test_nothing_under_src_imports_from_tests():
    test_modules = {path.stem for path in Path(__file__).parent.glob("*.py")}
    offenders = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.relative_to(SRC)}: {name}"
                for name in names
                if name.split(".")[0] in test_modules | {"tests"}
            ]
    assert offenders == []


def test_flat_synopsis_has_one_constructor_and_no_stored_read_only_flag():
    source = (SRC / "repro" / "core" / "soa.py").read_text()
    tree = ast.parse(source)
    (flat,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "FlatSynopsis"
    ]
    constructors = [
        node.name
        for node in flat.body
        if isinstance(node, ast.FunctionDef)
        and (
            node.name == "__init__"
            or any(
                isinstance(d, ast.Name) and d.id == "classmethod"
                for d in node.decorator_list
            )
        )
    ]
    assert constructors == ["__init__"]
    assert "_read_only" not in source and "mutations" not in source


#: Objects with a ``synopsis`` *field* (a catalog entry, a batch plan, a
#: query-log or drift record) are read through these names only.
RECORD_NAMES = {"entry", "record", "self"}


def test_a_synopsis_is_never_unwrapped():
    """``.flat`` / ``.synopsis`` are aliases of the object itself, never read.

    ``PASSSynopsis`` is a ``FlatSynopsis`` and ``DynamicPASS`` a
    ``PASSSynopsis``; the two alias properties stay only for callers outside
    ``src/``.  A ``.synopsis`` read through a record name is that record's
    field, not an unwrap.
    """
    definitions, reads = [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.relative_to(SRC)}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.ClassDef):
                definitions += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name in ("flat", "synopsis")
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                record_field = (
                    node.attr == "synopsis"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in RECORD_NAMES
                )
                if node.attr in ("flat", "synopsis") and not record_field:
                    reads.append(f"{where}: .{node.attr}")
    assert sorted(definitions) == ["DynamicPASS.synopsis", "PASSSynopsis.flat"]
    assert reads == []


def test_npz_io_is_confined_to_the_fingerprint_functions():
    source = (SRC / "repro" / "serving" / "persistence.py").read_text()
    tree = ast.parse(source)
    users = {
        node.name
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and re.search(r"np\.(savez|load)", ast.get_source_segment(source, node))
    }
    assert users == {"save_workload_fingerprint", "load_workload_fingerprint"}
    elsewhere = [
        hit
        for hit in _hits(re.compile(r"np\.(savez|load)\b"))
        if "persistence" not in hit
    ]
    assert elsewhere == []
