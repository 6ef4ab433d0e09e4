"""Regenerate tests/data/sparql_corpus.jsonl (200 CFQ-style programs).

The corpus is written once and committed; this script exists so the fixture
can be rebuilt reproducibly.  Design goals:

* programs are drawn from a limited pool of structural shapes, each
  instantiated several times with renamed variables and fresh entities, so
  train/dev splits share some structures but not all (novelty rates land
  strictly between 0 and 100);
* shapes lean on multi-object merge groups, so the grouped IR is measurably
  shorter than the flat program even under plain whitespace tokenization.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irkit import sparql as sp  # noqa: E402

RELATIONS = [
    "ns:film.film.directed_by",
    "ns:film.film.written_by",
    "ns:film.film.edited_by",
    "ns:film.film.produced_by",
    "ns:film.director.film",
    "ns:film.writer.film",
    "ns:film.editor.film",
    "ns:people.person.nationality",
    "ns:people.person.gender",
    "ns:people.person.spouse_s",
    "ns:people.person.employment_history",
    "ns:organization.organization.founders",
    "ns:business.employer.founders",
    "ns:influence.influence_node.influenced",
    "ns:influence.influence_node.influenced_by",
    "rdf.ns:type.object.name",
]

TYPES = [
    "ns:film.director",
    "ns:film.actor",
    "ns:film.editor",
    "ns:people.person",
    "ns:business.employer",
]

PHRASES = {
    "directed_by": "directed by",
    "written_by": "written by",
    "edited_by": "edited by",
    "produced_by": "produced by",
    "film": "made",
    "nationality": "from",
    "gender": "of gender",
    "spouse_s": "married to",
    "employment_history": "employed by",
    "founders": "founded by",
    "influenced": "influencing",
    "influenced_by": "influenced by",
    "name": "named",
}

N_SHAPES = 48
N_RECORDS = 200


# The generator's own program form, which the benchmark generator
# (perfbench/generate.py) also draws its sparql programs through.
class Head(NamedTuple):
    kind: str  # "count" or "distinct"
    variables: tuple[str, ...] = ()


class Triple(NamedTuple):
    subject: str
    relation: str
    object: str


class Filter(NamedTuple):
    left: str
    op: str
    right: str


class Program(NamedTuple):
    head: Head
    conjuncts: tuple[Triple | Filter, ...]

    def render(self) -> str:
        """The canonical surface form, as irkit renders it."""
        head = ("SELECT count(*)" if self.head.kind == "count" else
                "SELECT DISTINCT " + " ".join(self.head.variables))
        body = " . ".join(f"FILTER ( {c.left} {c.op} {c.right} )"
                          if type(c) is Filter else " ".join(c)
                          for c in self.conjuncts)
        return f"{head} WHERE {{ {body} }}"


def make_shape(rng: random.Random):
    """A query skeleton: conjunct patterns over variable/entity slots."""
    n_vars = rng.randrange(2, 5)
    conjuncts = []
    ent_slots = 0

    def fresh_ent():
        nonlocal ent_slots
        ent_slots += 1
        return ("ent", ent_slots - 1)

    ent_pool: list[tuple[str, int]] = []

    def obj_slot():
        # reuse an entity slot occasionally so merge groups share objects
        if ent_pool and rng.random() < 0.25:
            return rng.choice(ent_pool)
        slot = fresh_ent()
        ent_pool.append(slot)
        return slot

    for _ in range(rng.randrange(2, 4)):
        subject = ("var", rng.randrange(n_vars))
        relation = rng.choice(RELATIONS)
        for _ in range(rng.choice([3, 4, 4, 5, 5, 6])):
            if rng.random() < 0.2:
                conjuncts.append((subject, relation,
                                  ("var", rng.randrange(n_vars))))
            else:
                conjuncts.append((subject, relation, obj_slot()))
    for _ in range(rng.randrange(0, 3)):
        conjuncts.append((("var", rng.randrange(n_vars)),
                          rng.choice(RELATIONS), obj_slot()))
    if rng.random() < 0.5:
        conjuncts.append((("var", rng.randrange(n_vars)), "a",
                          ("type", rng.choice(TYPES))))
    if rng.random() < 0.25:
        conjuncts.append(rng.choice(conjuncts))

    used = sorted({slot[1] for c in conjuncts for slot in (c[0], c[2])
                   if slot[0] == "var"})
    filters = []
    if len(used) >= 2 and rng.random() < 0.35:
        filters.append(("filter", tuple(rng.sample(used, 2))))
    head = ("count", None) if rng.random() < 0.5 else ("distinct", used[0])
    return head, conjuncts + filters, used, ent_slots


def entity(rng: random.Random) -> str:
    if rng.random() < 0.6:
        return f"M{rng.randrange(10)}"
    return "m_0" + "".join(rng.choice("0123456789bcdfghjklmnpqrstvwxyz")
                           for _ in range(6))


def instantiate(shape, rng: random.Random) -> Program:
    head_spec, conjuncts, used_vars, n_ents = shape
    order = list(used_vars)
    rng.shuffle(order)
    var_names = {slot: f"?x{i}" for i, slot in enumerate(order)}
    ent_names = [entity(rng) for _ in range(n_ents)]

    def term(slot):
        kind, value = slot
        if kind == "var":
            return var_names[value]
        if kind == "ent":
            return ent_names[value]
        return value  # type name, fixed

    out = []
    for c in conjuncts:
        if c[0] == "filter":
            left, right = c[1]
            out.append(Filter(var_names[left], "!=", var_names[right]))
        else:
            subject, relation, obj = c
            out.append(Triple(term(subject), relation, term(obj)))
    if head_spec[0] == "count":
        head = Head("count")
    else:
        head = Head("distinct", (var_names[head_spec[1]],))
    return Program(head, tuple(out))


def utterance(q: Program, rng: random.Random) -> str:
    bits = []
    for c in [c for c in q.conjuncts if type(c) is Triple][:4]:
        tail = c.relation.rsplit(".", 1)[-1]
        bits.append(f"{c.subject.lstrip('?')} {PHRASES.get(tail, tail)} "
                    f"{c.object}")
    lead = "How many entities were" if q.head.kind == "count" else "Which"
    return f"{lead} {' and '.join(bits)}"


def main() -> None:
    rng = random.Random(20230411)
    shapes = [make_shape(rng) for _ in range(N_SHAPES)]
    # Zipf-ish reuse: early shapes are much more common than late ones.
    weights = [1.0 / (1 + i) ** 0.7 for i in range(N_SHAPES)]

    out = Path(__file__).resolve().parents[1] / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sparql_corpus.jsonl"
    records = []
    for i in range(N_RECORDS):
        shape = rng.choices(shapes, weights)[0]
        q = instantiate(shape, rng)
        text = q.render()
        assert sp.render_sparql(sp.parse_sparql(text)) == text
        records.append({"id": f"cfq{i:03d}", "x": utterance(q, rng),
                        "y": text})

    queries = [sp.parse_sparql(r["y"]) for r in records]
    rdict = sp.build_relation_dict(queries)
    base = sum(len(r["y"].split()) for r in records) / len(records)
    rir = sum(len(sp.render_rir(sp.sparql_to_rir(q, rdict)).split())
              for q in queries) / len(records)
    assert rir < base, f"grouped IR not shorter: {rir:.1f} vs {base:.1f}"
    print(f"avg whitespace length: program {base:.1f}, grouped IR {rir:.1f}")

    signatures = [sp.structure_signature(q) for q in queries]
    train = set(signatures[:150])
    novel = sum(1 for s in signatures[150:] if s not in train)
    print(f"dev novelty on a 150/50 split: {novel}/50")
    assert 0 < novel < 50, "split should be neither trivial nor disjoint"

    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    print(f"wrote {len(records)} records -> {path}")


if __name__ == "__main__":
    main()
