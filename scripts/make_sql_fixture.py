"""Write tests/data/sql_corpus.jsonl from the hand-curated query list below.

Queries follow the canonical text-to-SQL writing style: uppercase keywords,
``<TABLE NAME>alias<N>`` aliases declared in FROM, single-space token
separation, values as quoted strings / numbers / lowercase placeholders.
The set deliberately covers self joins, nested (and doubly nested)
subqueries, GROUP BY / HAVING / ORDER BY / LIMIT, BETWEEN, IN / NOT IN,
parenthesized OR groups, and set operations.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from irkit import sql  # noqa: E402

QUERIES: list[tuple[str, str]] = [
    # --- flight domain -----------------------------------------------------
    ("list flights from boston to denver",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM AIRPORT_SERVICE AS AIRPORT_SERVICEalias0 , AIRPORT_SERVICE AS AIRPORT_SERVICEalias1 , CITY AS CITYalias0 , CITY AS CITYalias1 , FLIGHT AS FLIGHTalias0 WHERE CITYalias0.CITY_CODE = AIRPORT_SERVICEalias0.CITY_CODE AND CITYalias0.CITY_NAME = "BOSTON" AND CITYalias1.CITY_CODE = AIRPORT_SERVICEalias1.CITY_CODE AND CITYalias1.CITY_NAME = "DENVER" AND FLIGHTalias0.FROM_AIRPORT = AIRPORT_SERVICEalias0.AIRPORT_CODE AND FLIGHTalias0.TO_AIRPORT = AIRPORT_SERVICEalias1.AIRPORT_CODE'),
    ("what united flights leave before 800",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.AIRLINE_CODE = "UA" AND FLIGHTalias0.DEPARTURE_TIME < 800'),
    ("flights arriving between 1200 and 1400",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.ARRIVAL_TIME BETWEEN 1200 AND 1400'),
    ("cheapest fare from dallas",
     'SELECT DISTINCT FAREalias0.FARE_ID FROM FARE AS FAREalias0 WHERE FAREalias0.ONE_DIRECTION_COST = ( SELECT MIN( FAREalias1.ONE_DIRECTION_COST ) FROM FARE AS FAREalias1 , FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.FARE_ID = FAREalias1.FARE_ID AND FLIGHTalias0.FROM_CITY = "DALLAS" )'),
    ("how many flights does american have",
     'SELECT COUNT( DISTINCT FLIGHTalias0.FLIGHT_ID ) FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.AIRLINE_CODE = "AA"'),
    ("flights leaving after a given hour with meals",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.DEPARTURE_TIME > departure_time0 AND FLIGHTalias0.MEAL_CODE = meal_code0'),
    ("list the airlines that serve denver",
     'SELECT DISTINCT AIRLINEalias0.AIRLINE_CODE FROM AIRLINE AS AIRLINEalias0 , AIRPORT_SERVICE AS AIRPORT_SERVICEalias0 , CITY AS CITYalias0 , FLIGHT AS FLIGHTalias0 WHERE CITYalias0.CITY_CODE = AIRPORT_SERVICEalias0.CITY_CODE AND CITYalias0.CITY_NAME = "DENVER" AND FLIGHTalias0.AIRLINE_CODE = AIRLINEalias0.AIRLINE_CODE AND FLIGHTalias0.TO_AIRPORT = AIRPORT_SERVICEalias0.AIRPORT_CODE'),
    ("flights on tuesday or wednesday",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM DAYS AS DAYSalias0 , FLIGHT AS FLIGHTalias0 WHERE ( DAYSalias0.DAY_NAME = "TUESDAY" OR DAYSalias0.DAY_NAME = "WEDNESDAY" ) AND FLIGHTalias0.FLIGHT_DAYS = DAYSalias0.DAYS_CODE'),
    ("nonstop flights ordered by departure",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.STOPS = 0 ORDER BY FLIGHTalias0.DEPARTURE_TIME ASC'),
    ("two leg connections where the second leg is later",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID , FLIGHTalias1.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 , FLIGHT AS FLIGHTalias1 WHERE FLIGHTalias0.TO_AIRPORT = FLIGHTalias1.FROM_AIRPORT AND FLIGHTalias0.ARRIVAL_TIME < FLIGHTalias1.DEPARTURE_TIME'),
    ("count flights per airline",
     'SELECT FLIGHTalias0.AIRLINE_CODE , COUNT( * ) FROM FLIGHT AS FLIGHTalias0 GROUP BY FLIGHTalias0.AIRLINE_CODE'),
    ("airlines with at least 10 flights",
     'SELECT FLIGHTalias0.AIRLINE_CODE FROM FLIGHT AS FLIGHTalias0 GROUP BY FLIGHTalias0.AIRLINE_CODE HAVING COUNT( * ) >= 10'),
    ("first class fares to atlanta",
     'SELECT DISTINCT FAREalias0.FARE_ID FROM FARE AS FAREalias0 , FARE_BASIS AS FARE_BASISalias0 , FLIGHT AS FLIGHTalias0 WHERE FAREalias0.FARE_BASIS_CODE = FARE_BASISalias0.FARE_BASIS_CODE AND FARE_BASISalias0.CLASS_TYPE = "FIRST" AND FLIGHTalias0.FARE_ID = FAREalias0.FARE_ID AND FLIGHTalias0.TO_CITY = "ATLANTA"'),
    ("the three earliest departures",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 ORDER BY FLIGHTalias0.DEPARTURE_TIME ASC LIMIT 3'),
    ("flights not on united",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE NOT FLIGHTalias0.AIRLINE_CODE = "UA"'),
    ("flights whose airline flies to paris",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.AIRLINE_CODE IN ( SELECT FLIGHTalias1.AIRLINE_CODE FROM FLIGHT AS FLIGHTalias1 WHERE FLIGHTalias1.TO_CITY = "PARIS" )'),
    ("flights that cost more than every fare to reno",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FARE AS FAREalias0 , FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.FARE_ID = FAREalias0.FARE_ID AND FAREalias0.ONE_DIRECTION_COST > ( SELECT MAX( FAREalias1.ONE_DIRECTION_COST ) FROM FARE AS FAREalias1 , FLIGHT AS FLIGHTalias1 WHERE FLIGHTalias1.FARE_ID = FAREalias1.FARE_ID AND FLIGHTalias1.TO_CITY = "RENO" )'),
    ("aircraft used from a given city",
     'SELECT DISTINCT AIRCRAFTalias0.AIRCRAFT_CODE FROM AIRCRAFT AS AIRCRAFTalias0 , EQUIPMENT_SEQUENCE AS EQUIPMENT_SEQUENCEalias0 , FLIGHT AS FLIGHTalias0 WHERE EQUIPMENT_SEQUENCEalias0.AIRCRAFT_CODE = AIRCRAFTalias0.AIRCRAFT_CODE AND FLIGHTalias0.AIRCRAFT_CODE_SEQUENCE = EQUIPMENT_SEQUENCEalias0.AIRCRAFT_CODE_SEQUENCE AND FLIGHTalias0.FROM_CITY = city_name0'),
    ("capacity of the plane on flight 324",
     'SELECT DISTINCT AIRCRAFTalias0.CAPACITY FROM AIRCRAFT AS AIRCRAFTalias0 , EQUIPMENT_SEQUENCE AS EQUIPMENT_SEQUENCEalias0 , FLIGHT AS FLIGHTalias0 WHERE EQUIPMENT_SEQUENCEalias0.AIRCRAFT_CODE = AIRCRAFTalias0.AIRCRAFT_CODE AND FLIGHTalias0.AIRCRAFT_CODE_SEQUENCE = EQUIPMENT_SEQUENCEalias0.AIRCRAFT_CODE_SEQUENCE AND FLIGHTalias0.FLIGHT_NUMBER = 324'),
    ("flights under 300 dollars or nonstop",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID FROM FARE AS FAREalias0 , FLIGHT AS FLIGHTalias0 WHERE FLIGHTalias0.FARE_ID = FAREalias0.FARE_ID AND ( FAREalias0.ONE_DIRECTION_COST < 300 OR FLIGHTalias0.STOPS = 0 )'),
    ("itineraries chaining three flights",
     'SELECT DISTINCT FLIGHTalias0.FLIGHT_ID , FLIGHTalias1.FLIGHT_ID , FLIGHTalias2.FLIGHT_ID FROM FLIGHT AS FLIGHTalias0 , FLIGHT AS FLIGHTalias1 , FLIGHT AS FLIGHTalias2 WHERE FLIGHTalias0.TO_AIRPORT = FLIGHTalias1.FROM_AIRPORT AND FLIGHTalias1.TO_AIRPORT = FLIGHTalias2.FROM_AIRPORT AND FLIGHTalias0.DEPARTURE_TIME < 900'),
    ("ground transport in san francisco",
     'SELECT DISTINCT GROUND_SERVICEalias0.TRANSPORT_TYPE FROM CITY AS CITYalias0 , GROUND_SERVICE AS GROUND_SERVICEalias0 WHERE CITYalias0.CITY_NAME = "SAN FRANCISCO" AND GROUND_SERVICEalias0.CITY_CODE = CITYalias0.CITY_CODE'),
    ("airports served in washington",
     'SELECT DISTINCT AIRPORTalias0.AIRPORT_CODE FROM AIRPORT AS AIRPORTalias0 , AIRPORT_SERVICE AS AIRPORT_SERVICEalias0 , CITY AS CITYalias0 WHERE AIRPORT_SERVICEalias0.AIRPORT_CODE = AIRPORTalias0.AIRPORT_CODE AND CITYalias0.CITY_CODE = AIRPORT_SERVICEalias0.CITY_CODE AND CITYalias0.CITY_NAME = "WASHINGTON"'),
    ("flight numbers only",
     "SELECT DISTINCT FLIGHTalias0.FLIGHT_NUMBER FROM FLIGHT AS FLIGHTalias0"),
    ("one constant",
     "SELECT 1"),
    # --- geography domain --------------------------------------------------
    ("cities with population over 150000",
     "SELECT CITYalias0.CITY_NAME FROM CITY AS CITYalias0 WHERE CITYalias0.POPULATION > 150000"),
    ("rivers crossing texas",
     'SELECT RIVERalias0.RIVER_NAME FROM RIVER AS RIVERalias0 WHERE RIVERalias0.TRAVERSE = "texas"'),
    ("the longest river",
     "SELECT RIVERalias0.RIVER_NAME FROM RIVER AS RIVERalias0 WHERE RIVERalias0.LENGTH = ( SELECT MAX( RIVERalias1.LENGTH ) FROM RIVER AS RIVERalias1 )"),
    ("states bordering states that border texas",
     'SELECT BORDER_INFOalias0.STATE_NAME FROM BORDER_INFO AS BORDER_INFOalias0 WHERE BORDER_INFOalias0.BORDER IN ( SELECT BORDER_INFOalias1.STATE_NAME FROM BORDER_INFO AS BORDER_INFOalias1 WHERE BORDER_INFOalias1.BORDER = "texas" )'),
    ("capitals of states with major rivers",
     'SELECT STATEalias0.CAPITAL FROM RIVER AS RIVERalias0 , STATE AS STATEalias0 WHERE RIVERalias0.TRAVERSE = STATEalias0.STATE_NAME AND RIVERalias0.LENGTH > 750'),
    ("state with the smallest area",
     "SELECT STATEalias0.STATE_NAME FROM STATE AS STATEalias0 WHERE STATEalias0.AREA = ( SELECT MIN( STATEalias1.AREA ) FROM STATE AS STATEalias1 )"),
    ("how many states have no bordering state",
     "SELECT COUNT( * ) FROM STATE AS STATEalias0 WHERE STATEalias0.STATE_NAME NOT IN ( SELECT BORDER_INFOalias0.STATE_NAME FROM BORDER_INFO AS BORDER_INFOalias0 )"),
    ("cities in states that border a named state",
     "SELECT CITYalias0.CITY_NAME FROM BORDER_INFO AS BORDER_INFOalias0 , CITY AS CITYalias0 WHERE BORDER_INFOalias0.BORDER = state_name0 AND CITYalias0.STATE_NAME = BORDER_INFOalias0.STATE_NAME"),
    ("population density of the largest state",
     "SELECT STATEalias0.DENSITY FROM STATE AS STATEalias0 WHERE STATEalias0.AREA = ( SELECT MAX( STATEalias1.AREA ) FROM STATE AS STATEalias1 )"),
    ("states with a city named springfield",
     'SELECT DISTINCT STATEalias0.STATE_NAME FROM CITY AS CITYalias0 , STATE AS STATEalias0 WHERE CITYalias0.CITY_NAME = "springfield" AND CITYalias0.STATE_NAME = STATEalias0.STATE_NAME'),
    ("rivers in the state with the largest population",
     "SELECT RIVERalias0.RIVER_NAME FROM RIVER AS RIVERalias0 WHERE RIVERalias0.TRAVERSE = ( SELECT STATEalias0.STATE_NAME FROM STATE AS STATEalias0 WHERE STATEalias0.POPULATION = ( SELECT MAX( STATEalias1.POPULATION ) FROM STATE AS STATEalias1 ) )"),
    ("total population across all states",
     "SELECT SUM( STATEalias0.POPULATION ) FROM STATE AS STATEalias0"),
    ("the states and how many cities each has",
     "SELECT CITYalias0.STATE_NAME , COUNT( * ) FROM CITY AS CITYalias0 GROUP BY CITYalias0.STATE_NAME ORDER BY COUNT( * ) DESC"),
    ("highest point of the state containing a given city",
     'SELECT HIGHLOWalias0.HIGHEST_ELEVATION FROM CITY AS CITYalias0 , HIGHLOW AS HIGHLOWalias0 WHERE CITYalias0.CITY_NAME = city_name0 AND HIGHLOWalias0.STATE_NAME = CITYalias0.STATE_NAME'),
    ("pairs of neighboring states both touching the mississippi",
     'SELECT DISTINCT BORDER_INFOalias0.STATE_NAME , BORDER_INFOalias1.STATE_NAME FROM BORDER_INFO AS BORDER_INFOalias0 , BORDER_INFO AS BORDER_INFOalias1 , RIVER AS RIVERalias0 WHERE BORDER_INFOalias0.BORDER = BORDER_INFOalias1.STATE_NAME AND RIVERalias0.RIVER_NAME = "mississippi" AND RIVERalias0.TRAVERSE = BORDER_INFOalias0.STATE_NAME'),
    ("states without any river",
     "SELECT STATEalias0.STATE_NAME FROM STATE AS STATEalias0 WHERE STATEalias0.STATE_NAME NOT IN ( SELECT RIVERalias0.TRAVERSE FROM RIVER AS RIVERalias0 )"),
    # --- scholarly publications domain --------------------------------------
    ("papers by dan klein",
     'SELECT DISTINCT WRITESalias0.PAPERID FROM AUTHOR AS AUTHORalias0 , WRITES AS WRITESalias0 WHERE AUTHORalias0.AUTHORNAME = "dan klein" AND WRITESalias0.AUTHORID = AUTHORalias0.AUTHORID'),
    ("papers at acl 2015",
     'SELECT DISTINCT PAPERalias0.PAPERID FROM PAPER AS PAPERalias0 , VENUE AS VENUEalias0 WHERE PAPERalias0.VENUEID = VENUEalias0.VENUEID AND PAPERalias0.YEAR = 2015 AND VENUEalias0.VENUENAME = "ACL"'),
    ("papers citing a given paper",
     'SELECT DISTINCT CITEalias0.CITINGPAPERID FROM CITE AS CITEalias0 , PAPER AS PAPERalias0 WHERE CITEalias0.CITEDPAPERID = PAPERalias0.PAPERID AND PAPERalias0.TITLE = title0'),
    ("authors of the most cited paper",
     "SELECT DISTINCT WRITESalias0.AUTHORID FROM WRITES AS WRITESalias0 WHERE WRITESalias0.PAPERID IN ( SELECT CITEalias0.CITEDPAPERID FROM CITE AS CITEalias0 GROUP BY CITEalias0.CITEDPAPERID ORDER BY COUNT( * ) DESC LIMIT 1 )"),
    ("coauthors of two named authors",
     'SELECT DISTINCT WRITESalias0.PAPERID FROM AUTHOR AS AUTHORalias0 , AUTHOR AS AUTHORalias1 , WRITES AS WRITESalias0 , WRITES AS WRITESalias1 WHERE AUTHORalias0.AUTHORNAME = authorname0 AND AUTHORalias1.AUTHORNAME = authorname1 AND WRITESalias0.AUTHORID = AUTHORalias0.AUTHORID AND WRITESalias1.AUTHORID = AUTHORalias1.AUTHORID AND WRITESalias0.PAPERID = WRITESalias1.PAPERID'),
    ("how many papers appeared in each year after 2010",
     "SELECT PAPERalias0.YEAR , COUNT( * ) FROM PAPER AS PAPERalias0 WHERE PAPERalias0.YEAR > 2010 GROUP BY PAPERalias0.YEAR"),
    ("papers in deep learning with more than 50 citations",
     'SELECT DISTINCT PAPERalias0.PAPERID FROM KEYPHRASE AS KEYPHRASEalias0 , PAPER AS PAPERalias0 , PAPERKEYPHRASE AS PAPERKEYPHRASEalias0 WHERE KEYPHRASEalias0.KEYPHRASENAME = "deep learning" AND PAPERKEYPHRASEalias0.KEYPHRASEID = KEYPHRASEalias0.KEYPHRASEID AND PAPERalias0.PAPERID = PAPERKEYPHRASEalias0.PAPERID AND PAPERalias0.NUMCITEDBY > 50'),
    ("venues dan klein published in in 2016",
     'SELECT DISTINCT PAPERalias0.VENUEID FROM AUTHOR AS AUTHORalias0 , PAPER AS PAPERalias0 , WRITES AS WRITESalias0 WHERE AUTHORalias0.AUTHORNAME = "dan klein" AND WRITESalias0.AUTHORID = AUTHORalias0.AUTHORID AND WRITESalias0.PAPERID = PAPERalias0.PAPERID AND PAPERalias0.YEAR = 2016'),
    ("titles of papers citing papers that cite a given paper",
     "SELECT DISTINCT PAPERalias0.TITLE FROM CITE AS CITEalias0 , PAPER AS PAPERalias0 WHERE CITEalias0.CITEDPAPERID IN ( SELECT CITEalias1.CITINGPAPERID FROM CITE AS CITEalias1 WHERE CITEalias1.CITEDPAPERID = paperid0 ) AND PAPERalias0.PAPERID = CITEalias0.CITINGPAPERID"),
    ("authors with papers in both venues",
     'SELECT DISTINCT WRITESalias0.AUTHORID FROM PAPER AS PAPERalias0 , VENUE AS VENUEalias0 , WRITES AS WRITESalias0 WHERE PAPERalias0.VENUEID = VENUEalias0.VENUEID AND VENUEalias0.VENUENAME = "ACL" AND WRITESalias0.PAPERID = PAPERalias0.PAPERID INTERSECT SELECT DISTINCT WRITESalias1.AUTHORID FROM PAPER AS PAPERalias1 , VENUE AS VENUEalias1 , WRITES AS WRITESalias1 WHERE PAPERalias1.VENUEID = VENUEalias1.VENUEID AND VENUEalias1.VENUENAME = "EMNLP" AND WRITESalias1.PAPERID = PAPERalias1.PAPERID'),
    ("papers from 2014 through 2016",
     "SELECT DISTINCT PAPERalias0.PAPERID FROM PAPER AS PAPERalias0 WHERE PAPERalias0.YEAR BETWEEN 2014 AND 2016"),
    ("number of authors per paper at a venue",
     'SELECT WRITESalias0.PAPERID , COUNT( DISTINCT WRITESalias0.AUTHORID ) FROM PAPER AS PAPERalias0 , VENUE AS VENUEalias0 , WRITES AS WRITESalias0 WHERE PAPERalias0.VENUEID = VENUEalias0.VENUEID AND VENUEalias0.VENUENAME = venuename0 AND WRITESalias0.PAPERID = PAPERalias0.PAPERID GROUP BY WRITESalias0.PAPERID HAVING COUNT( DISTINCT WRITESalias0.AUTHORID ) >= 3'),
    ("the papers sharing no author with a given paper",
     "SELECT DISTINCT PAPERalias0.PAPERID FROM PAPER AS PAPERalias0 WHERE PAPERalias0.PAPERID NOT IN ( SELECT WRITESalias0.PAPERID FROM WRITES AS WRITESalias0 WHERE WRITESalias0.AUTHORID IN ( SELECT WRITESalias1.AUTHORID FROM WRITES AS WRITESalias1 WHERE WRITESalias1.PAPERID = paperid0 ) )"),
    ("oldest paper on parsing",
     'SELECT DISTINCT PAPERalias0.PAPERID FROM KEYPHRASE AS KEYPHRASEalias0 , PAPER AS PAPERalias0 , PAPERKEYPHRASE AS PAPERKEYPHRASEalias0 WHERE KEYPHRASEalias0.KEYPHRASENAME = "parsing" AND PAPERKEYPHRASEalias0.KEYPHRASEID = KEYPHRASEalias0.KEYPHRASEID AND PAPERalias0.PAPERID = PAPERKEYPHRASEalias0.PAPERID ORDER BY PAPERalias0.YEAR ASC LIMIT 1'),
    ("count the venues used since 2012",
     "SELECT COUNT( DISTINCT PAPERalias0.VENUEID ) FROM PAPER AS PAPERalias0 WHERE PAPERalias0.YEAR >= 2012"),
    ("papers by an author in a year range",
     'SELECT DISTINCT WRITESalias0.PAPERID FROM AUTHOR AS AUTHORalias0 , PAPER AS PAPERalias0 , WRITES AS WRITESalias0 WHERE AUTHORalias0.AUTHORNAME = authorname0 AND PAPERalias0.YEAR BETWEEN year0 AND year1 AND WRITESalias0.AUTHORID = AUTHORalias0.AUTHORID AND WRITESalias0.PAPERID = PAPERalias0.PAPERID'),
    ("journals and their paper counts sorted",
     "SELECT PAPERalias0.JOURNALID , COUNT( * ) FROM PAPER AS PAPERalias0 GROUP BY PAPERalias0.JOURNALID ORDER BY COUNT( * ) DESC"),
    ("papers whose title mentions a phrase or cites a given paper",
     "SELECT DISTINCT PAPERalias0.PAPERID FROM CITE AS CITEalias0 , PAPER AS PAPERalias0 WHERE ( PAPERalias0.TITLE = title0 OR CITEalias0.CITEDPAPERID = paperid0 ) AND PAPERalias0.PAPERID = CITEalias0.CITINGPAPERID"),
    ("authors publishing every year since 2014",
     "SELECT WRITESalias0.AUTHORID FROM PAPER AS PAPERalias0 , WRITES AS WRITESalias0 WHERE PAPERalias0.YEAR >= 2014 AND WRITESalias0.PAPERID = PAPERalias0.PAPERID GROUP BY WRITESalias0.AUTHORID HAVING COUNT( DISTINCT PAPERalias0.YEAR ) = 3"),
    ("union of acl and emnlp papers",
     'SELECT PAPERalias0.PAPERID FROM PAPER AS PAPERalias0 , VENUE AS VENUEalias0 WHERE PAPERalias0.VENUEID = VENUEalias0.VENUEID AND VENUEalias0.VENUENAME = "ACL" UNION SELECT PAPERalias1.PAPERID FROM PAPER AS PAPERalias1 , VENUE AS VENUEalias1 WHERE PAPERalias1.VENUEID = VENUEalias1.VENUEID AND VENUEalias1.VENUENAME = "EMNLP"'),
]


def main() -> None:
    out = Path(__file__).resolve().parents[1] / "tests" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sql_corpus.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for i, (x, y) in enumerate(QUERIES):
            parsed = sql.parse_sql(y)
            assert parsed.render() == y, f"not canonical: {y}"
            restored = sql.sql_from_rir(sql.sql_to_rir(parsed))
            assert restored.render() == y, f"round trip failed: {y}"
            handle.write(json.dumps(
                {"id": f"sql{i:03d}", "x": x, "y": y},
                ensure_ascii=False) + "\n")
    print(f"wrote {len(QUERIES)} records -> {path}")


if __name__ == "__main__":
    main()
