"""The benchmark's generator (``perfbench/generate.py``) draws its sparql
programs through ``scripts/make_sparql_fixture.py`` and computes the answers
it expects of irkit by token-level code.  Building a small corpus of each
workload here makes a change that breaks either side fail in the tests, not
only when the benchmark runs."""

import importlib.util
import sys
from pathlib import Path

from irkit import formalisms
from irkit import sparql as sp

GENERATE = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"


def _generate():
    spec = importlib.util.spec_from_file_location("bench_generate", GENERATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def _relation_dict(corpus):
    return sp.RelationDictionary(corpus.relation_dict)


def test_train_prep_sparql_inputs_match_irkit():
    g = _generate()
    corpus = g.Generator(1).corpus("sparql", 40, "train")
    rdict = _relation_dict(corpus)
    assert len(corpus.items) == 40
    for item in corpus.items:
        q = sp.parse_sparql(item.y)
        z = sp.sparql_to_rir(q, rdict)
        assert sp.render_sparql(q) == item.y
        assert sp.render_rir(z) == item.rir
        assert sp.sparql_to_lir(q) == item.lir
        assert sp.sparql_to_lir(z) == item.lir_rir
        assert sp.render_sparql(sp.sparql_from_rir(z, rdict)) == item.inverse
        assert sp.varify(q) == item.varified


def test_test_score_sparql_predictions_match_irkit():
    g = _generate()
    corpus, preds = g.PREDICTIONS["sparql"](g.Generator(1), 40, "test")
    rdict = _relation_dict(corpus)
    key = formalisms.TABLE["sparql"].key
    gold = {item.id: item.y for item in corpus.items}
    kinds = {p.kind for p in preds}
    assert len(preds) == 40 and g.EXACT in kinds and g.MALFORMED in kinds
    for p in preds:
        if p.kind == g.MALFORMED:
            continue
        z = sp.parse_rir(p.text)
        final = sp.render_sparql(sp.sparql_from_rir(z, rdict))
        assert sp.sparql_to_lir(z) == p.lir
        assert final == p.final
        assert (key(final) == key(gold[p.id])) == (p.kind == g.EXACT)
