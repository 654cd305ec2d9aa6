.PHONY: test fuzz-ci bench scaling oracle digest digest-save loc

# the tier-1 command of ROADMAP.md: every test runs, none stops the rest
test:
	ray stop --force >/dev/null 2>&1; timeout -k 10 2670 python -m pytest tests/ -q --continue-on-collection-errors -p no:cacheprovider

# standing differential-fuzz sweep vs the real reference under node
# (~4-5 min; the per-suite 120-seed slice runs in tests/test_fuzz_ci.py)
fuzz-ci:
	python tools/fuzz_spec.py 1000 0

bench:
	python bench.py

scaling:
	python bench.py --scaling

oracle:
	python tools/check_oracle.py /root/testdata/sf0.001

# byte-identity check for engine refactors (~45 s): sha256 of the violations,
# ok mask and output value on the flagship batches and gen_case seeds 0-1999,
# each seed with its own prefs and again with abortEarly off.
# Run `make digest-save` on the base commit, then `make digest` on the change.
DIGEST ?= .corpus_digest.json

digest-save:
	python3 tools/corpus_digest.py --save $(DIGEST)

digest:
	python3 tools/corpus_digest.py --check $(DIGEST)

# physical and code lines (no blanks, comments or docstrings) per file of joi_ray/,
# then every function over 150 lines, longest first
loc:
	python3 tools/loc.py
