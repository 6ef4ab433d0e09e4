import re
from pathlib import Path

import pytest

from irkit import metrics, pipeline, sparql
from irkit.data import ExampleRecord
from irkit.errors import ConfigError

SINGLE_STAGE = [m for m in pipeline.MODES
                if m not in pipeline.TWO_STAGE_MODES]


def sparql_cfg(relation_dict, **kwargs):
    return pipeline.PipelineConfig("sparql", relation_dict=relation_dict,
                                   **kwargs)


@pytest.fixture()
def corpora(sparql_records, sql_records, scan_records, relation_dict):
    return {
        "sparql": (sparql_records[:40], sparql_cfg(relation_dict)),
        "sql": (sql_records, pipeline.PipelineConfig("sql")),
        "scan": (scan_records, pipeline.PipelineConfig("scan")),
    }


def run_gold_pipeline(records, mode, cfg):
    """Drive the full mode graph with gold stage targets standing in for
    model predictions; returns the final (id, program) list."""
    quarantined = []
    stage1 = list(pipeline.prepare_stage1(records, mode, cfg, quarantined))
    assert not quarantined
    preds1 = [(p.id, p.target) for p in stage1]
    post = list(pipeline.postprocess_stage1(preds1, mode, cfg, quarantined,
                                            records))
    assert not quarantined
    if mode not in pipeline.TWO_STAGE_MODES:
        return post
    stage2 = list(pipeline.prepare_stage2(records, mode, cfg, quarantined))
    assert not quarantined
    gold2 = {p.id: p.target for p in stage2}
    # A gold stage-1 output gives stage 2 its gold sources: in lir-i-rir,
    # to_lir(parse_rir(render_rir(z))) is Program.lir_rir_text().
    assert post == [(p.id, p.source) for p in stage2]
    preds2 = [(record_id, gold2[record_id]) for record_id, _ in post]
    final = list(pipeline.finalize(preds2, mode, cfg, quarantined, records))
    assert not quarantined
    return final


# ---------------------------------------------------------------------------
# Staging targets
# ---------------------------------------------------------------------------


def test_baseline_stage1_is_identity(corpora):
    records, cfg = corpora["sql"]
    pairs = pipeline.prepare_stage1(records, pipeline.BASELINE, cfg, [])
    assert [(p.source, p.target) for p in pairs] == \
        [(r.x, r.y) for r in records]


def test_scan_rir_stage1_target():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump twice", "JUMP JUMP")
    pairs = list(pipeline.prepare_stage1([record], pipeline.RIR, cfg, []))
    assert pairs[0].target == "( JUMP ) ( JUMP )"


def test_scan_rir_requires_consistent_record():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump twice", "JUMP JUMP JUMP")
    quarantined = []
    pairs = list(pipeline.prepare_stage1([record], pipeline.RIR, cfg,
                                         quarantined))
    assert not pairs
    assert quarantined[0].id == "0"


def test_sparql_lir_rir_composition(sparql_records, relation_dict):
    cfg = sparql_cfg(relation_dict)
    records = sparql_records[:20]
    pairs = pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg, [])
    for record, pair in zip(records, pairs):
        q = sparql.parse_sparql(record.y)
        z = sparql.sparql_to_rir(q, relation_dict, cfg.rir_options)
        assert pair.target == sparql.sparql_to_lir(z)


def test_lir_cat_target_and_budget(corpora):
    records, cfg = corpora["scan"]
    cfg.cat_budget = 8
    over_budget = []
    pairs = list(pipeline.prepare_stage1(records, pipeline.LIR_CAT, cfg, [],
                                         over_budget=over_budget))
    pair = pairs[0]  # jump twice
    assert pair.target == "JUMP A ; JUMP JUMP"
    long_targets = [p for p in pairs
                    if len(p.target.split()) > cfg.cat_budget]
    assert len(over_budget) == len(long_targets) > 0
    assert over_budget == [p.id for p in long_targets]
    assert all(p.target.count(" ; ") >= 1 for p in pairs)


_SQL_CITY = ('SELECT CITYalias0.CITY_NAME FROM CITY AS CITYalias0 WHERE '
             'CITYalias0.NAME = ')


# The final step of lir-cat splits at the first separator, so a z_l that
# holds it would give back a wrong program; a y that holds it is split off
# whole.
@pytest.mark.parametrize("formalism, x, y, separator", [
    ("sparql", "q", "SELECT count(*) WHERE { ?x0 ; M1 }", " ; "),
    ("sql", "q", _SQL_CITY + '" ; "', " ; "),
    ("scan", "jump twice", "JUMP JUMP", " A "),
])
def test_lir_cat_quarantines_a_z_l_that_holds_the_separator(formalism, x, y,
                                                            separator):
    cfg = pipeline.PipelineConfig(formalism, separator=separator)
    quarantined = []
    pairs = list(pipeline.prepare_stage1([ExampleRecord("0", x, y)],
                                         pipeline.LIR_CAT, cfg, quarantined))
    assert pairs == []
    assert [(e.id, e.stage, e.reason) for e in quarantined] == [
        ("0", "stage1", "z_l holds the separator, so the program could not "
         "be split from it")]


@pytest.mark.parametrize("formalism, x, y, separator", [
    ("sparql", "q", "SELECT count(*) WHERE { ?x0 r M1 }", " M1 "),
    ("sql", "q", _SQL_CITY + '"a"', " CITYalias0.NAME "),
    ("scan", "jump thrice", "JUMP JUMP JUMP", " JUMP "),
])
def test_lir_cat_keeps_a_y_that_holds_the_separator(formalism, x, y,
                                                    separator):
    cfg = pipeline.PipelineConfig(formalism, separator=separator)
    record = ExampleRecord("0", x, y)
    assert separator in y
    assert run_gold_pipeline([record], pipeline.LIR_CAT, cfg) == [("0", y)]


def test_varified_stage1(sparql_records, relation_dict):
    cfg = sparql_cfg(relation_dict)
    pairs = pipeline.prepare_stage1(sparql_records[:5], pipeline.VARIFIED,
                                    cfg, [])
    for record, pair in zip(sparql_records, pairs):
        assert sparql.strip_var_markers(pair.target) == record.y


def test_varified_quarantines_a_program_holding_the_marker():
    cfg = pipeline.PipelineConfig("sparql")
    records = [
        ExampleRecord("bad", "q", "SELECT count(*) WHERE { ?x0 var M1 }"),
        ExampleRecord("ok", "q", "SELECT count(*) WHERE { ?x0 r M1 }")]
    quarantined = []
    pairs = list(pipeline.prepare_stage1(records, pipeline.VARIFIED, cfg,
                                         quarantined))
    assert [p.target for p in pairs] == [
        "SELECT count(*) WHERE { var ?x0 r var M1 }"]
    assert [(e.id, e.stage) for e in quarantined] == [("bad", "stage1")]


def test_varified_rejected_for_other_formalisms():
    with pytest.raises(ConfigError):
        pipeline.prepare_stage1([], pipeline.VARIFIED,
                                pipeline.PipelineConfig("scan"), [])


def test_stage2_source_contains_separator_once(corpora):
    records, cfg = corpora["sparql"]
    pairs = pipeline.prepare_stage2(records[:10], pipeline.LIR_D, cfg, [])
    for pair in pairs:
        assert pair.source.count(cfg.separator) == 1


def test_stage2_rejected_for_single_stage_modes(corpora):
    records, cfg = corpora["sql"]
    for mode in (pipeline.BASELINE, pipeline.RIR, pipeline.LIR_CAT,
                 pipeline.VARIFIED):
        with pytest.raises(ConfigError):
            pipeline.prepare_stage2(records, mode, cfg, [])


def test_lir_oracle_stage2_equals_lir_d(corpora):
    for formalism in ("sparql", "sql", "scan"):
        records, cfg = corpora[formalism]
        a = list(pipeline.prepare_stage2(records, pipeline.LIR_D, cfg, []))
        b = list(pipeline.prepare_stage2(records, pipeline.LIR_ORACLE, cfg,
                                         []))
        assert a == b


def test_quarantine_completeness(corpora):
    records, cfg = corpora["sql"]
    broken = records + [ExampleRecord("bad", "who", "NOT SQL AT ALL ) (")]
    for mode in (pipeline.BASELINE, pipeline.RIR, pipeline.LIR_D):
        quarantined = []
        pairs = list(pipeline.prepare_stage1(broken, mode, cfg, quarantined))
        assert len(pairs) + len(quarantined) == len(broken)
        if mode != pipeline.BASELINE:
            assert [e.id for e in quarantined] == ["bad"]


def test_tab_in_field_is_quarantined():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump\tand", "JUMP")
    quarantined = []
    pairs = list(pipeline.prepare_stage1([record], pipeline.BASELINE, cfg,
                                         quarantined))
    assert not pairs
    assert "tab" in quarantined[0].reason


def test_custom_separator(corpora):
    records, _ = corpora["scan"]
    cfg = pipeline.PipelineConfig("scan", separator=" @@ ")
    pairs = list(pipeline.prepare_stage2(records[:3], pipeline.LIR_D, cfg,
                                         []))
    assert all(" @@ " in p.source for p in pairs)
    final = run_gold_pipeline(records[:3], pipeline.LIR_CAT, cfg)
    assert [out for _, out in final] == [r.y for r in records[:3]]


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def test_rir_postprocess_scan():
    cfg = pipeline.PipelineConfig("scan")
    post = pipeline.postprocess_stage1([("0", "( JUMP ) ( JUMP )")],
                                       pipeline.RIR, cfg, [])
    assert list(post) == [("0", "JUMP JUMP")]


def test_rir_postprocess_flags_invalid():
    cfg = pipeline.PipelineConfig("scan")
    flagged = []
    post = pipeline.postprocess_stage1(
        [("0", "( JUMP"), ("1", "JUMP")], pipeline.RIR, cfg, flagged)
    assert list(post) == [("0", ""), ("1", "JUMP")]
    assert [e.id for e in flagged] == ["0"]


def test_lir_i_postprocess_builds_stage2_sources(sparql_records,
                                                 relation_dict):
    cfg = sparql_cfg(relation_dict)
    records = sparql_records[:5]
    preds = [(r.id, r.y) for r in records]  # a perfect first stage
    post = pipeline.postprocess_stage1(preds, pipeline.LIR_I, cfg, [],
                                       records)
    for record, (record_id, source) in zip(records, post):
        assert record_id == record.id
        x, sep, z = source.partition(cfg.separator)
        assert x == record.x
        assert z == sparql.sparql_to_lir(sparql.parse_sparql(record.y))
        assert "?x" not in z and " M" not in f" {z}"


def test_lir_i_invalid_prediction_excluded(sparql_records, relation_dict):
    cfg = sparql_cfg(relation_dict)
    records = sparql_records[:3]
    preds = [(records[0].id, records[0].y),
             (records[1].id, "SELECT count(*) WHERE { broken"),
             (records[2].id, records[2].y)]
    flagged = []
    post = pipeline.postprocess_stage1(preds, pipeline.LIR_I, cfg, flagged,
                                       records)
    assert [i for i, _ in post] == [records[0].id, records[2].id]
    assert [e.id for e in flagged] == [records[1].id]
    # finalize carries the dropped id through as an automatic mismatch
    flagged = []
    final = list(pipeline.finalize(
        [(records[0].id, records[0].y), (records[2].id, records[2].y)],
        pipeline.LIR_I, cfg, flagged, records))
    assert (records[1].id, "") in final
    assert any(e.id == records[1].id for e in flagged)


# The alias qualifier FLIGHTalias1 has no FROM declaration.
UNDECLARED_ALIAS_SQL = ("SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS "
                        'FLIGHTalias0 WHERE FLIGHTalias1.AIRLINE_CODE = "UA"')


@pytest.mark.parametrize("formalism", pipeline.FORMALISMS)
def test_lir_i_inference_z_equals_training_z(corpora, formalism):
    """A perfect first stage gives stage 2 the sources it was trained on."""
    records, cfg = corpora[formalism]
    if formalism == "sql":
        records = [*records, ExampleRecord("undeclared", "flights on UA",
                                           UNDECLARED_ALIAS_SQL)]
    trained_quarantine, flagged = [], []
    trained = list(pipeline.prepare_stage2(records, pipeline.LIR_I, cfg,
                                           trained_quarantine))
    post = list(pipeline.postprocess_stage1([(r.id, r.y) for r in records],
                                            pipeline.LIR_I, cfg, flagged,
                                            records))
    assert post == [(p.id, p.source) for p in trained]
    assert flagged == trained_quarantine == []


def test_lir_oracle_stages_every_record_of_a_repeated_id():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("a", "walk", "WALK")]
    staged = pipeline.prepare_stage2(records, pipeline.LIR_ORACLE, cfg, [])
    flagged = []
    post = list(pipeline.postprocess_stage1(None, pipeline.LIR_ORACLE, cfg,
                                            flagged, records))
    assert post == [(p.id, p.source) for p in staged]
    assert [source for _, source in post] == ["jump ; JUMP", "walk ; WALK"]
    assert flagged == []


def test_two_stage_postprocess_uses_the_first_record_of_an_id():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("a", "walk", "WALK"),
               ExampleRecord("b", "run", "RUN")]
    flagged = []
    post = list(pipeline.postprocess_stage1([("a", "JUMP"), ("b", "RUN")],
                                            pipeline.LIR_D, cfg, flagged,
                                            records))
    assert post == [("a", "jump ; JUMP"), ("b", "run ; RUN")]
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("a", "data", "repeated id")]


def test_two_stage_postprocess_flags_a_repeated_prediction_once():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("b", "run", "RUN")]
    flagged = []
    post = list(pipeline.postprocess_stage1(
        [("a", "JUMP"), ("a", "WALK"), ("b", "RUN")], pipeline.LIR_D, cfg,
        flagged, records))
    assert post == [("a", "jump ; JUMP"), ("b", "run ; RUN")]
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("a", "postprocess1", "repeated id")]


def test_two_stage_postprocess_requires_records(corpora):
    records, cfg = corpora["sql"]
    with pytest.raises(ConfigError):
        pipeline.postprocess_stage1([("sql000", "x")], pipeline.LIR_D, cfg,
                                    [])


def test_finalize_restores_sql_aliases(sql_records):
    cfg = pipeline.PipelineConfig("sql")
    record = sql_records[1]
    z_r = pipeline.Program(record, cfg).rir_text()
    assert "FLIGHT0" in z_r
    flagged = []
    final = list(pipeline.finalize([(record.id, z_r)], pipeline.LIR_D_RIR,
                                   cfg, flagged))
    assert not flagged
    assert final == [(record.id, record.y)]


def test_finalize_drops_unknown_and_repeated_ids():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("b", "walk", "WALK")]
    preds = [("a", "JUMP"), ("zz", "WALK"), ("a", "LTURN"), ("b", "WALK")]
    flagged = []
    final = list(pipeline.finalize(preds, pipeline.LIR_D, cfg, flagged,
                                   records))
    assert final == [("a", "JUMP"), ("b", "WALK")]
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("zz", "finalize", "prediction id not in dataset"),
        ("a", "finalize", "repeated id")]
    # Without the dataset there is nothing to check the ids against.
    flagged = []
    assert list(pipeline.finalize(preds, pipeline.LIR_D, cfg, flagged)) \
        == preds
    assert flagged == []


def test_finalize_flags_each_missing_id_once():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("b", "run", "RUN")]
    flagged = []
    final = list(pipeline.finalize([("b", "RUN")], pipeline.LIR_D, cfg,
                                   flagged, records))
    assert final == [("b", "RUN"), ("a", "")]
    assert [(e.id, e.reason) for e in flagged] == [
        ("a", "repeated id"),
        ("a", "no stage-2 prediction (dropped upstream)")]


def test_finalize_flags_a_repeated_dataset_id():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("b", "run", "RUN"),
               ExampleRecord("a", "walk", "WALK")]
    flagged = []
    final = list(pipeline.finalize([("a", "JUMP"), ("b", "RUN")],
                                   pipeline.LIR_D, cfg, flagged, records))
    assert final == [("a", "JUMP"), ("b", "RUN")]
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("a", "data", "repeated id")]


def test_finalize_splits_lir_cat():
    cfg = pipeline.PipelineConfig("scan")
    flagged = []
    final = list(pipeline.finalize([("0", "JUMP A ; JUMP JUMP")],
                                   pipeline.LIR_CAT, cfg, flagged))
    assert final == [("0", "JUMP JUMP")]
    assert not flagged


def test_finalize_rejected_for_baseline():
    with pytest.raises(ConfigError):
        pipeline.finalize([], pipeline.BASELINE,
                          pipeline.PipelineConfig("scan"), [])


# ---------------------------------------------------------------------------
# Gold-route identity: every mode x formalism reproduces gold programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", pipeline.MODES)
@pytest.mark.parametrize("formalism", pipeline.FORMALISMS)
def test_gold_route_identity(mode, formalism, corpora):
    if mode == pipeline.VARIFIED and formalism != "sparql":
        pytest.skip("varified is sparql-only")
    records, cfg = corpora[formalism]
    final = run_gold_pipeline(records, mode, cfg)
    golds = [(r.id, r.y) for r in records]
    flagged = []
    report = metrics.exact_match(final, golds, formalism, flagged)
    assert report.exact_match == 100.0
    assert flagged == []
    assert report.n_invalid == 0


def test_staging_is_deterministic(corpora):
    records, cfg = corpora["sparql"]
    a = list(pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg, []))
    b = list(pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg, []))
    assert a == b


def test_readme_mode_table_lists_the_modes_in_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Pipeline modes", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert tuple(listed) == pipeline.MODES
