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
    stage1 = pipeline.prepare_stage1(records, mode, cfg)
    assert not stage1.quarantined
    preds1 = [(p.id, p.target) for p in stage1.pairs]
    post = pipeline.postprocess_stage1(preds1, mode, cfg, records)
    assert not post.flagged
    if post.final is not None:
        return post.final
    stage2 = pipeline.prepare_stage2(records, mode, cfg)
    assert not stage2.quarantined
    gold2 = {p.id: p.target for p in stage2.pairs}
    assert [i for i, _ in post.stage2_sources] == [p.id for p in stage2.pairs]
    preds2 = [(record_id, gold2[record_id])
              for record_id, _ in post.stage2_sources]
    final, flagged = pipeline.finalize(preds2, mode, cfg, records)
    assert not flagged
    return final


# ---------------------------------------------------------------------------
# Staging targets
# ---------------------------------------------------------------------------


def test_baseline_stage1_is_identity(corpora):
    records, cfg = corpora["sql"]
    result = pipeline.prepare_stage1(records, pipeline.BASELINE, cfg)
    assert [(p.source, p.target) for p in result.pairs] == \
        [(r.x, r.y) for r in records]


def test_scan_rir_stage1_target():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump twice", "JUMP JUMP")
    result = pipeline.prepare_stage1([record], pipeline.RIR, cfg)
    assert result.pairs[0].target == "( JUMP ) ( JUMP )"


def test_scan_rir_requires_consistent_record():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump twice", "JUMP JUMP JUMP")
    result = pipeline.prepare_stage1([record], pipeline.RIR, cfg)
    assert not result.pairs
    assert result.quarantined[0].id == "0"


def test_sparql_lir_rir_composition(sparql_records, relation_dict):
    cfg = sparql_cfg(relation_dict)
    records = sparql_records[:20]
    result = pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg)
    for record, pair in zip(records, result.pairs):
        q = sparql.parse_sparql(record.y)
        z = sparql.sparql_to_rir(q, relation_dict, cfg.rir_options)
        assert pair.target == sparql.sparql_to_lir(z)


def test_lir_cat_target_and_budget(corpora):
    records, cfg = corpora["scan"]
    cfg.cat_budget = 8
    result = pipeline.prepare_stage1(records, pipeline.LIR_CAT, cfg)
    pair = result.pairs[0]  # jump twice
    assert pair.target == "JUMP A ; JUMP JUMP"
    long_targets = [p for p in result.pairs
                    if len(p.target.split()) > cfg.cat_budget]
    assert result.n_over_budget == len(long_targets) > 0
    assert all(p.target.count(" ; ") >= 1 for p in result.pairs)


def test_varified_stage1(sparql_records, relation_dict):
    cfg = sparql_cfg(relation_dict)
    result = pipeline.prepare_stage1(sparql_records[:5], pipeline.VARIFIED,
                                     cfg)
    for record, pair in zip(sparql_records, result.pairs):
        assert sparql.strip_var_markers(pair.target) == record.y


def test_varified_rejected_for_other_formalisms():
    with pytest.raises(ConfigError):
        pipeline.prepare_stage1([], pipeline.VARIFIED,
                                pipeline.PipelineConfig("scan"))


def test_stage2_source_contains_separator_once(corpora):
    records, cfg = corpora["sparql"]
    result = pipeline.prepare_stage2(records[:10], pipeline.LIR_D, cfg)
    for pair in result.pairs:
        assert pair.source.count(cfg.separator) == 1


def test_stage2_rejected_for_single_stage_modes(corpora):
    records, cfg = corpora["sql"]
    for mode in (pipeline.BASELINE, pipeline.RIR, pipeline.LIR_CAT,
                 pipeline.VARIFIED):
        with pytest.raises(ConfigError):
            pipeline.prepare_stage2(records, mode, cfg)


def test_lir_oracle_stage2_equals_lir_d(corpora):
    for formalism in ("sparql", "sql", "scan"):
        records, cfg = corpora[formalism]
        a = pipeline.prepare_stage2(records, pipeline.LIR_D, cfg)
        b = pipeline.prepare_stage2(records, pipeline.LIR_ORACLE, cfg)
        assert a.pairs == b.pairs


def test_quarantine_completeness(corpora):
    records, cfg = corpora["sql"]
    broken = records + [ExampleRecord("bad", "who", "NOT SQL AT ALL ) (")]
    for mode in (pipeline.BASELINE, pipeline.RIR, pipeline.LIR_D):
        result = pipeline.prepare_stage1(broken, mode, cfg)
        assert len(result.pairs) + len(result.quarantined) == len(broken)
        if mode != pipeline.BASELINE:
            assert [e.id for e in result.quarantined] == ["bad"]


def test_tab_in_field_is_quarantined():
    cfg = pipeline.PipelineConfig("scan")
    record = ExampleRecord("0", "jump\tand", "JUMP")
    result = pipeline.prepare_stage1([record], pipeline.BASELINE, cfg)
    assert not result.pairs
    assert "tab" in result.quarantined[0].reason


def test_custom_separator(corpora):
    records, _ = corpora["scan"]
    cfg = pipeline.PipelineConfig("scan", separator=" @@ ")
    result = pipeline.prepare_stage2(records[:3], pipeline.LIR_D, cfg)
    assert all(" @@ " in p.source for p in result.pairs)
    final = run_gold_pipeline(records[:3], pipeline.LIR_CAT, cfg)
    assert [out for _, out in final] == [r.y for r in records[:3]]


# ---------------------------------------------------------------------------
# Post-processing
# ---------------------------------------------------------------------------


def test_rir_postprocess_scan():
    cfg = pipeline.PipelineConfig("scan")
    post = pipeline.postprocess_stage1([("0", "( JUMP ) ( JUMP )")],
                                       pipeline.RIR, cfg)
    assert post.final == [("0", "JUMP JUMP")]


def test_rir_postprocess_flags_invalid():
    cfg = pipeline.PipelineConfig("scan")
    post = pipeline.postprocess_stage1(
        [("0", "( JUMP"), ("1", "JUMP")], pipeline.RIR, cfg)
    assert post.final == [("0", ""), ("1", "JUMP")]
    assert [e.id for e in post.flagged] == ["0"]


def test_lir_i_postprocess_builds_stage2_sources(sparql_records,
                                                 relation_dict):
    cfg = sparql_cfg(relation_dict)
    records = sparql_records[:5]
    preds = [(r.id, r.y) for r in records]  # a perfect first stage
    post = pipeline.postprocess_stage1(preds, pipeline.LIR_I, cfg, records)
    for record, (record_id, source) in zip(records, post.stage2_sources):
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
    post = pipeline.postprocess_stage1(preds, pipeline.LIR_I, cfg, records)
    assert [i for i, _ in post.stage2_sources] == [records[0].id,
                                                   records[2].id]
    assert [e.id for e in post.flagged] == [records[1].id]
    # finalize carries the dropped id through as an automatic mismatch
    final, flagged = pipeline.finalize(
        [(records[0].id, records[0].y), (records[2].id, records[2].y)],
        pipeline.LIR_I, cfg, records)
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
    trained = pipeline.prepare_stage2(records, pipeline.LIR_I, cfg)
    post = pipeline.postprocess_stage1([(r.id, r.y) for r in records],
                                       pipeline.LIR_I, cfg, records)
    assert post.stage2_sources == [(p.id, p.source) for p in trained.pairs]
    assert post.flagged == trained.quarantined == []


def test_lir_oracle_stages_every_record_of_a_repeated_id():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("a", "walk", "WALK")]
    staged = pipeline.prepare_stage2(records, pipeline.LIR_ORACLE, cfg)
    post = pipeline.postprocess_stage1(None, pipeline.LIR_ORACLE, cfg,
                                       records)
    assert post.stage2_sources == [(p.id, p.source) for p in staged.pairs]
    assert [source for _, source in post.stage2_sources] == [
        "jump ; JUMP", "walk ; WALK"]
    assert post.flagged == []


def test_two_stage_postprocess_requires_records(corpora):
    records, cfg = corpora["sql"]
    with pytest.raises(ConfigError):
        pipeline.postprocess_stage1([("sql000", "x")], pipeline.LIR_D, cfg)


def test_finalize_restores_sql_aliases(sql_records):
    cfg = pipeline.PipelineConfig("sql")
    record = sql_records[1]
    z_r = pipeline.reversible_ir(record, cfg)
    assert "FLIGHT0" in z_r
    final, flagged = pipeline.finalize([(record.id, z_r)],
                                       pipeline.LIR_D_RIR, cfg)
    assert not flagged
    assert final == [(record.id, record.y)]


def test_finalize_drops_unknown_and_repeated_ids():
    cfg = pipeline.PipelineConfig("scan")
    records = [ExampleRecord("a", "jump", "JUMP"),
               ExampleRecord("b", "walk", "WALK")]
    preds = [("a", "JUMP"), ("zz", "WALK"), ("a", "LTURN"), ("b", "WALK")]
    final, flagged = pipeline.finalize(preds, pipeline.LIR_D, cfg, records)
    assert final == [("a", "JUMP"), ("b", "WALK")]
    assert [(e.id, e.stage, e.reason) for e in flagged] == [
        ("zz", "finalize", "prediction id not in dataset"),
        ("a", "finalize", "repeated prediction id")]
    # Without the dataset there is nothing to check the ids against.
    assert pipeline.finalize(preds, pipeline.LIR_D, cfg) == (preds, [])


def test_finalize_splits_lir_cat():
    cfg = pipeline.PipelineConfig("scan")
    final, flagged = pipeline.finalize([("0", "JUMP A ; JUMP JUMP")],
                                       pipeline.LIR_CAT, cfg)
    assert final == [("0", "JUMP JUMP")]
    assert not flagged


def test_finalize_rejected_for_baseline():
    with pytest.raises(ConfigError):
        pipeline.finalize([], pipeline.BASELINE,
                          pipeline.PipelineConfig("scan"))


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
    report = metrics.exact_match(final, golds, formalism)
    assert report.exact_match == 100.0
    assert report.n_invalid == 0


def test_staging_is_deterministic(corpora):
    records, cfg = corpora["sparql"]
    a = pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg)
    b = pipeline.prepare_stage1(records, pipeline.LIR_D_RIR, cfg)
    assert a.pairs == b.pairs


def test_readme_mode_table_lists_the_modes_in_order():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Pipeline modes", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE)
    assert tuple(listed) == pipeline.MODES
