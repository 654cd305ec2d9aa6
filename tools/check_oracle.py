"""Driver-simulation: run each queries() entry and its oracle_sql() via
DuckDB on the same sf dir; compare row count, column set, and
order-insensitive values (the driver's CORRECTNESS gate, approximated).

Usage: python tools/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_df(res) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    import numpy as np

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif np.issubdtype(df[c].dtype, np.integer):
            df[c] = df[c].astype("int64")
        elif np.issubdtype(df[c].dtype, np.floating):
            df[c] = df[c].astype("float64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main():
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    # this checkout's driver entry, whatever the working directory
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as entry

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    qs, oracles = entry.queries(), entry.oracle_sql()
    failures = []
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            mine = to_df(fn(sf))
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"ok   {name}: rows={len(mine)} cols={sorted(mine.columns)} [{dt:.1f}s rows-only]")
            continue
        try:
            oracle = con.sql(oracles[name]).df()
        except Exception as e:
            failures.append(name)
            print(f"FAIL {name}: oracle raised {e}")
            continue
        a, b = canon(mine), canon(oracle)
        if list(a.columns) != list(b.columns):
            failures.append(name)
            print(f"FAIL {name}: columns {list(a.columns)} != {list(b.columns)}")
            continue
        if len(a) != len(b):
            failures.append(name)
            print(f"FAIL {name}: rows {len(a)} != {len(b)}")
            continue
        if not a.equals(b):
            diff = (a != b) & ~(a.isna() & b.isna())
            failures.append(name)
            bad_cols = diff.any(axis=0)
            print(f"FAIL {name}: value mismatch in {bad_cols[bad_cols].index.tolist()}")
            print("  mine:", a[diff.any(axis=1)].head(3).to_dict("records"))
            print("  orcl:", b[diff.any(axis=1)].head(3).to_dict("records"))
            continue
        print(f"ok   {name}: rows={len(a)} [{dt:.1f}s]")
    ray.shutdown()
    if failures:
        print("FAILED:", failures)
        sys.exit(1)
    print("ALL OK")


if __name__ == "__main__":
    main()
