PY ?= python3
# Import the package from this checkout's src/, so no install is needed.
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY)

test:
	$(RUN) -m pytest -q --continue-on-collection-errors

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

# Tier-1 tests, every demo, and an untraced and a traced smoke run of each
# benchmark workload.  The untraced run is the path the benchmark measures; the
# traced run wraps module attributes by name (benchmarks/tracing.py), so it
# fails when a traced function is renamed or removed.  Each run echoes its
# memory: peak RSS untraced, the traced one-step peak traced.
check: test
	@for demo in demos/*.py; do \
	  echo "== $$demo"; $(RUN) $$demo > /dev/null || exit 1; \
	done
	@for w in kinship midscale; do for trace in 0 1; do \
	  echo "== benchmark $$w (smoke, trace $$trace)"; out=$$(mktemp); \
	  $(RUN) benchmarks/run.py --workload $$w --seed 1 --seconds 10 --smoke --trace $$trace > $$out \
	    || { cat $$out; rm -f $$out; exit 1; }; \
	  grep '^check ' $$out; \
	  metric=peak_rss_mb; [ $$trace = 0 ] || metric=trainer.step_traced_peak_mb; \
	  echo "$$metric $$(grep -o "\"$$metric\": {\"value\": [0-9.]*" $$out | grep -o '[0-9.]*$$') MB"; \
	  grep -q '"correct": true' $$out || { cat $$out; rm -f $$out; exit 1; }; \
	  rm -f $$out; \
	done; done

# sha256 of the checkpoint train() returns for 24 benchmark-derived configs, one
# line each; two checkouts print the same lines when their training is
# bit-identical.  One BLAS thread, since more can change the mid-scale bits.
digests:
	OPENBLAS_NUM_THREADS=1 $(RUN) tools/checkpoint_digests.py

# Line count of the package source, the design-size metric of ROADMAP.md.
loc:
	@cat src/transgcn/*.py | wc -l

toy:
	$(RUN) -m transgcn gen-toy --out runs/kinship --seed 0
	$(RUN) -m transgcn train --data runs/kinship --out runs/kinship-model \
	  --assumption rotation --layers 1 --dim 32 --gamma 6 --lr 0.01 \
	  --sampling selfadv --pretrain-epochs 150 --epochs 300 --eval-every 25
	$(RUN) -m transgcn eval --checkpoint runs/kinship-model/model.ckpt \
	  --data runs/kinship --split test --buckets --out runs/kinship-model

# Full-scale reproduction targets. These are research-length jobs, not CI
# checks. On a synthetic FB15k-237-shaped graph (d=500, batch 512, 16
# negatives) one one-layer rotation step took 3.9-5.4 s on a 2-core host,
# so an epoch of 532 steps takes about 35-48 minutes. fullscale-fb15k237 runs
# 100 zero-layer epochs, then 100 two-layer epochs; a two-layer step took
# 7.6-8.4 s there, so the two-layer epochs alone take about 112-124 hours.
# fullscale-wn18rr runs 100 zero-layer epochs, then 100 one-layer epochs; on a
# synthetic WN18RR-shaped graph a one-layer step took 2.8-3.6 s, so an epoch of
# 170 steps takes about 8-10 minutes and the 100 one-layer epochs about 13-17
# hours, plus 2.6-3.9 hours of zero-layer epochs (0.56-0.82 s a step).
# Validation passes come on top. Reference targets: FB15k-237
# filtered MRR 0.356 +/- 0.02, WN18RR filtered MRR 0.485 +/- 0.02.
fullscale-fb15k237:
	@test -n "$(TRANSGCN_FB15K237_DIR)" || { echo "set TRANSGCN_FB15K237_DIR first"; exit 2; }
	$(RUN) -m transgcn train --data $(TRANSGCN_FB15K237_DIR) --out runs/fb15k237 \
	  --assumption rotation --layers 2 --dim 500 --gamma 9 --alpha 1 \
	  --negatives 16 --lr 0.001 --epochs 200 --batch 512 --eval-every 10 \
	  --sampling selfadv --pretrain-epochs 100 --seed 0
	$(RUN) -m transgcn eval --checkpoint runs/fb15k237/model.ckpt \
	  --data $(TRANSGCN_FB15K237_DIR) --split test --out runs/fb15k237

fullscale-wn18rr:
	@test -n "$(TRANSGCN_WN18RR_DIR)" || { echo "set TRANSGCN_WN18RR_DIR first"; exit 2; }
	$(RUN) -m transgcn train --data $(TRANSGCN_WN18RR_DIR) --out runs/wn18rr \
	  --assumption rotation --layers 1 --dim 500 --gamma 6 --alpha 1 \
	  --negatives 16 --lr 0.001 --epochs 200 --batch 512 --eval-every 10 \
	  --sampling selfadv --pretrain-epochs 100 --seed 0
	$(RUN) -m transgcn eval --checkpoint runs/wn18rr/model.ckpt \
	  --data $(TRANSGCN_WN18RR_DIR) --split test --out runs/wn18rr

.PHONY: test acceptance check digests loc toy fullscale-fb15k237 fullscale-wn18rr
