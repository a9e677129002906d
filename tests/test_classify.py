import json
import os
import subprocess
import sys
from importlib import resources

from hypothesis import given, settings
from hypothesis import strategies as st

import permscan
from permscan.catalog import load_catalog
from permscan.classify import (
    CONF_DESCRIPTION,
    CONF_FALLBACK,
    CONF_STEM,
    Operation,
    PermissionLabel,
    classify_api,
)

DATA = resources.files("permscan.data")
CORPUS = load_catalog(str(DATA / "corpus_catalog.json"))
LABELS = json.loads((DATA / "corpus_labels.json").read_text())


def _api(api_id):
    return CORPUS.apis[api_id]


def test_operation_parse_and_rank():
    assert Operation.parse("Modify") is Operation.MODIFY
    assert Operation.CREATE < Operation.VIEW < Operation.COMMENT < Operation.MODIFY < Operation.DELETE


def test_label_round_trip():
    label = PermissionLabel(Operation.MODIFY, "Spreadsheet", True)
    assert PermissionLabel.from_json(label.to_json()) == label


def test_stem_classification():
    label, conf = classify_api(_api("Sheet.clearContents"), CORPUS)
    assert label.operation is Operation.DELETE and conf == CONF_STEM
    label, _ = classify_api(_api("Range.replyToComment"), CORPUS)
    assert label.operation is Operation.COMMENT and not label.touches_sharing


def test_builder_trap_is_view():
    label, conf = classify_api(_api("SpreadsheetApp.newAffineTransformBuilder"), CORPUS)
    assert label.operation is Operation.VIEW and conf == CONF_STEM


def test_wait_trap_is_view():
    label, _ = classify_api(_api("Spreadsheet.waitForAllDataExecutionsCompletion"), CORPUS)
    assert label.operation is Operation.VIEW


def test_sharing_mutators_are_modify():
    for api_id in ("Spreadsheet.addEditor", "Spreadsheet.removeViewer", "Spreadsheet.setOwner"):
        label, _ = classify_api(_api(api_id), CORPUS)
        assert label.operation is Operation.MODIFY and label.touches_sharing, api_id


def test_sharing_reads_keep_view():
    label, _ = classify_api(_api("Spreadsheet.getViewers"), CORPUS)
    assert label.operation is Operation.VIEW and label.touches_sharing


def test_sharing_needs_shareable_parent():
    # Sheet is not a root product, so a marker in a Sheet method is inert
    label, _ = classify_api(_api("Sheet.hideColumn"), CORPUS)
    assert not label.touches_sharing


def test_description_keyword_fallback():
    # no method stem, but the description names the verb
    doc = json.loads((DATA / "corpus_catalog.json").read_text())
    doc["apis"] = [dict(doc["apis"][0])]
    doc["apis"][0].update(
        id="SpreadsheetApp.blorpify", method="blorpify",
        description="Deletes everything in sight.", returns={"void": True}, params=[],
    )
    from permscan.catalog import parse_catalog

    cat = parse_catalog(doc)
    label, conf = classify_api(cat.apis["SpreadsheetApp.blorpify"], cat)
    assert label.operation is Operation.DELETE and conf == CONF_DESCRIPTION


def test_modify_fallback():
    label, conf = classify_api(_api("Spreadsheet.renameActiveSheet"), CORPUS)
    assert label.operation is Operation.MODIFY and conf == CONF_FALLBACK


def test_corpus_accuracy_at_least_38_of_40():
    hits = 0
    for api in CORPUS.apis.values():
        label, _ = classify_api(api, CORPUS)
        want = LABELS[api.id]
        hits += (
            label.operation is Operation.parse(want["operation"])
            and label.touches_sharing == want["touches_sharing"]
        )
    assert len(CORPUS.apis) == 40
    assert hits >= 38


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(CORPUS.apis)))
def test_classifier_is_deterministic_and_total(api_id):
    first = classify_api(CORPUS.apis[api_id], CORPUS)
    second = classify_api(CORPUS.apis[api_id], CORPUS)
    assert first == second
    label, conf = first
    assert isinstance(label.operation, Operation)
    assert conf in (CONF_STEM, CONF_DESCRIPTION, CONF_FALLBACK)


def test_import_leaves_http_stack_unloaded():
    src = os.path.dirname(os.path.dirname(permscan.__file__))
    probe = "import sys, permscan.cli; print(sorted({'requests', 'urllib.request'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    ).stdout
    assert out.strip() == "[]"
