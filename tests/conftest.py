import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from irkit import data, sparql

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def sparql_records():
    return list(data.read_records_jsonl(DATA_DIR / "sparql_corpus.jsonl"))


@pytest.fixture(scope="session")
def sparql_queries(sparql_records):
    return [sparql.parse_sparql(r.y) for r in sparql_records]


@pytest.fixture(scope="session")
def relation_dict(sparql_queries):
    return sparql.build_relation_dict(sparql_queries)


@pytest.fixture(scope="session")
def sql_records():
    return list(data.read_records_jsonl(DATA_DIR / "sql_corpus.jsonl"))


@pytest.fixture(scope="session")
def scan_records():
    return list(data.read_scan_records(DATA_DIR / "scan_sample.txt"))


@pytest.fixture(scope="session")
def differential():
    """``scripts/differential.py``, whose ``mutate`` builds seeded token
    mutations of the fixture programs."""
    path = Path(__file__).parents[1] / "scripts" / "differential.py"
    spec = importlib.util.spec_from_file_location("differential", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
