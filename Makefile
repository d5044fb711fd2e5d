PY ?= python3
# Import the package from this checkout's src/, so no install is needed.
RUN = PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} $(PY)

test:
	$(RUN) -m pytest -q --continue-on-collection-errors

acceptance:
	$(RUN) -m pytest tests/test_acceptance.py -v -s

# Tier-1 tests, every demo, and a traced smoke run of each benchmark workload.
# The traced run wraps module attributes by name (benchmarks/tracing.py), so
# it fails when a traced function is renamed or removed.
check: test
	@for demo in demos/*.py; do \
	  echo "== $$demo"; $(RUN) $$demo > /dev/null || exit 1; \
	done
	@for w in kinship midscale; do \
	  echo "== benchmark $$w (smoke, traced)"; out=$$(mktemp); \
	  $(RUN) benchmarks/run.py --workload $$w --seed 1 --seconds 10 --smoke --trace 1 > $$out \
	    || { cat $$out; rm -f $$out; exit 1; }; \
	  grep '^check ' $$out; \
	  grep -q '"correct": true' $$out || { cat $$out; rm -f $$out; exit 1; }; \
	  rm -f $$out; \
	done

toy:
	$(RUN) -m transgcn gen-toy --out runs/kinship --seed 0
	$(RUN) -m transgcn train --data runs/kinship --out runs/kinship-model \
	  --assumption rotation --layers 1 --dim 32 --gamma 6 --lr 0.01 \
	  --sampling selfadv --pretrain-epochs 150 --epochs 300 --eval-every 25
	$(RUN) -m transgcn eval --checkpoint runs/kinship-model/model.ckpt \
	  --data runs/kinship --split test --buckets --out runs/kinship-model

# Full-scale reproduction targets. These are research-length jobs, not CI
# checks: with the pure-numpy backend expect tens of hours on one CPU core
# (an hour buys only a handful of epochs at d=500). Reference targets:
# FB15k-237 filtered MRR 0.356 +/- 0.02, WN18RR filtered MRR 0.485 +/- 0.02.
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

.PHONY: test acceptance check toy fullscale-fb15k237 fullscale-wn18rr
