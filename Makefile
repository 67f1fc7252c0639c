.PHONY: build test ci ci-seeds chaos-smoke serve-smoke cluster-smoke watch-smoke perfbench-smoke bench clean

build:
	dune build @all

test:
	dune runtest

# Reproducible CI entry point: full build plus the whole test suite
# with every randomized layer pinned — the differential fuzz oracle
# reads MIRA_FUZZ_SEED (its default is the same baked-in seed), the
# qcheck property suites read QCHECK_SEED, and the fault-injection
# harness reads MIRA_FAULT_SEED.  --force re-executes tests even when
# dune has them cached, so the pinned seeds really run.  The hard
# timeout turns any nontermination regression (a budget that stopped
# firing, a stuck worker) into a CI failure instead of a hang.  The
# last step runs the paper-table harness (bench/main.ml) in its fast
# mode, so every table, figure and the bechamel suite still execute.
ci:
	dune build @all
	MIRA_FUZZ_SEED=20260806 QCHECK_SEED=20260806 MIRA_FAULT_SEED=20260806 \
	  timeout --kill-after=30 600 dune runtest --force
	$(MAKE) ci-seeds
	$(MAKE) chaos-smoke
	$(MAKE) serve-smoke
	$(MAKE) cluster-smoke
	$(MAKE) watch-smoke
	$(MAKE) perfbench-smoke
	timeout --kill-after=10 120 dune exec bench/main.exe -- --fast

# Seed sweep: the fault-injection, cluster, daemon and protocol
# harnesses re-run under several pinned MIRA_FAULT_SEED values.  Each
# seed draws a different deterministic fault schedule (different
# sources corrupted, different connections killed, different frames
# cut short on the event loop's write path), so invariants that happen
# to hold under one schedule — exactly-once dispatch, byte-identical
# recovery, pipelined answers re-associated by id — get checked under
# three.  Assertions tied to the default schedule's specifics are
# themselves seed-gated in the tests.  The evaluator oracles — the VM
# fuzz oracle, compiled against interpreted evaluation, and the
# emitted Python against the evaluator — and the pipeline's
# byte-identity oracle (warm analysis against cold) re-run with the
# same seeds as MIRA_FUZZ_SEED, so each draws three sets of random
# kernels.  The counting properties (closed forms against enumeration,
# among them factored counts of random product domains) re-run with
# the same seeds as QCHECK_SEED, so each draws three sets of domains:
# without it qcheck picks a fresh seed on every run.
ci-seeds: build
	for s in 20260806 7 424242; do \
	  echo "== MIRA_FAULT_SEED=$$s MIRA_FUZZ_SEED=$$s QCHECK_SEED=$$s"; \
	  MIRA_FAULT_SEED=$$s MIRA_FUZZ_SEED=$$s QCHECK_SEED=$$s \
	  timeout --kill-after=30 300 \
	    sh -ec 'cd _build/default/test \
	      && ./test_faults.exe -e && ./test_cluster.exe -e \
	      && ./test_serve.exe -e && ./test_protocol.exe -e \
	      && ./test_differential.exe -e && ./test_model_compile.exe -e \
	      && ./test_minipy.exe -e && ./test_incremental.exe -e \
	      && ./test_poly.exe -e' || exit 1; \
	done

# Chaos smoke: the self-healing-fleet harness end to end — seeded
# crash-injected cache publishes must recover with zero torn entries,
# a supervised 3-daemon fleet must survive one child SIGKILLed twice
# mid-sweep with exactly-once byte-identical results, circuit breakers
# must reopen through their half-open probes, and a lost endpoint must
# rejoin a running sweep when its daemon comes back.
chaos-smoke: build
	MIRA_FAULT_SEED=20260806 timeout --kill-after=30 300 \
	  sh -ec 'cd _build/default/test && ./test_supervise.exe -e'

# Eval-service smoke: boot two real daemons — one on a Unix socket,
# one on a TCP ephemeral port (discovered from its ready line) — drive
# one client round-trip per verb, fan a pooled, pipelined eval-sweep
# across both, then SIGTERM each and require clean drained exits — all
# under a hard timeout so a wedged daemon fails CI instead of hanging
# it.
serve-smoke: build
	timeout --kill-after=10 60 sh -ec ' \
	  exe=./_build/default/bin/mira.exe; \
	  dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; \
	  sock=$$dir/mira.sock; \
	  $$exe corpus-dump $$dir/corpus; \
	  $$exe serve --endpoint unix:$$sock --cache --cache-dir $$dir/cache-a \
	    & pid_unix=$$!; \
	  $$exe serve --endpoint tcp:127.0.0.1:0 --cache --cache-dir $$dir/cache-b \
	    > $$dir/tcp.log & pid_tcp=$$!; \
	  i=0; until $$exe client ping --endpoint unix:$$sock >/dev/null 2>&1; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  i=0; until grep -q "listening on tcp:" $$dir/tcp.log; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  tcp=$$(sed -n "s/^mira serve: listening on \(tcp:.*\)$$/\1/p" $$dir/tcp.log); \
	  $$exe client ping --endpoint $$tcp; \
	  $$exe client analyze $$dir/corpus/saxpy.mc --endpoint unix:$$sock >/dev/null; \
	  $$exe client eval $$dir/corpus/stream.mc -f stream_triad -p n=1000 \
	    --endpoint $$tcp; \
	  $$exe client stats --endpoint $$tcp | grep -q "^uptime-ms="; \
	  printf "%s\n%s\n%s\n%s\n" \
	    "$$dir/corpus/saxpy.mc saxpy_chain n=64 reps=2" \
	    "$$dir/corpus/saxpy.mc saxpy_chain n=128 reps=2" \
	    "$$dir/corpus/stream.mc stream_triad n=1000" \
	    "$$dir/corpus/stream.mc stream_triad n=2000" > $$dir/sweep.txt; \
	  $$exe eval-sweep $$dir/sweep.txt --endpoint unix:$$sock --endpoint $$tcp \
	    --chunk 4 | tee $$dir/sweep.out; \
	  [ $$(grep -c "^ok " $$dir/sweep.out) -eq 4 ]; \
	  kill -TERM $$pid_unix; kill -TERM $$pid_tcp; \
	  wait $$pid_unix; wait $$pid_tcp'

# Cluster smoke: three real daemons sharing an HMAC secret — one on a
# Unix socket, two on TCP ephemeral ports — serve a 200-binding
# authenticated sweep while one TCP daemon is SIGKILLed mid-run.  The
# coordinator must detect the loss, re-dispatch the dead shard's
# unfinished bindings to the survivors, and still deliver every answer
# in input order with exit 0.  An unauthenticated ping on a TCP
# endpoint must be refused.  Then the sharded-batch path: two disjoint
# --shard runs into separate caches, "mira cache merge" unions them,
# and a full batch against the merged cache must run entirely warm
# ("0 analyzed").  Survivors must drain cleanly on SIGTERM.  Then a
# daemon that stalls every frame 1.3 s between header and payload must
# not be declared lost by a 1 s heartbeat: a frame still arriving is
# not silence, so its one binding is answered.  Last, revival through
# the CLI: the 200-binding sweep runs on a daemon that stalls every
# frame 20 ms (about 5 s alone) beside an endpoint whose daemon starts
# only 0.2 s into the sweep.  That endpoint's circuit opens, its
# half-open probe succeeds once the daemon is up, and the late daemon
# must report a nonzero served count when it drains; every answer
# still arrives in input order.
cluster-smoke: build
	timeout --kill-after=10 120 sh -ec ' \
	  exe=./_build/default/bin/mira.exe; \
	  dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; \
	  printf "cluster-smoke-secret\n" > $$dir/secret; \
	  sock=$$dir/mira.sock; \
	  $$exe corpus-dump $$dir/corpus; \
	  $$exe serve --endpoint unix:$$sock --auth-secret-file $$dir/secret \
	    --workers 4 & pid1=$$!; \
	  $$exe serve --endpoint tcp:127.0.0.1:0 --auth-secret-file $$dir/secret \
	    --workers 4 > $$dir/t1.log & pid2=$$!; \
	  $$exe serve --endpoint tcp:127.0.0.1:0 --auth-secret-file $$dir/secret \
	    --workers 4 > $$dir/t2.log & pid3=$$!; \
	  i=0; until $$exe client ping --endpoint unix:$$sock \
	      --auth-secret-file $$dir/secret >/dev/null 2>&1; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  for log in t1 t2; do i=0; \
	    until grep -q "listening on tcp:" $$dir/$$log.log; do \
	      i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; done; \
	  tcp1=$$(sed -n "s/^mira serve: listening on \(tcp:.*\)$$/\1/p" $$dir/t1.log); \
	  tcp2=$$(sed -n "s/^mira serve: listening on \(tcp:.*\)$$/\1/p" $$dir/t2.log); \
	  if $$exe client ping --endpoint $$tcp1 >/dev/null 2>&1; then \
	    echo "unauthenticated tcp ping was accepted" >&2; exit 1; fi; \
	  : > $$dir/sweep.txt; : > $$dir/expect.txt; \
	  i=0; while [ $$i -lt 200 ]; do i=$$((i+1)); \
	    echo "$$dir/corpus/saxpy.mc saxpy_chain n=$$((8+i)) reps=2" \
	      >> $$dir/sweep.txt; \
	    echo "ok saxpy.mc saxpy_chain n=$$((8+i)) reps=2" \
	      >> $$dir/expect.txt; done; \
	  ( sleep 0.1; kill -9 $$pid3 ) & killer=$$!; \
	  $$exe eval-sweep $$dir/sweep.txt \
	    --endpoint unix:$$sock --endpoint $$tcp1 --endpoint $$tcp2 \
	    --auth-secret-file $$dir/secret --chunk 16 --heartbeat-ms 300 \
	    > $$dir/sweep.out; \
	  wait $$killer; \
	  cut -d" " -f1-5 $$dir/sweep.out | diff - $$dir/expect.txt; \
	  $$exe batch $$dir/corpus --shard 1/2 --cache --cache-dir $$dir/ca >/dev/null; \
	  $$exe batch $$dir/corpus --shard 2/2 --cache --cache-dir $$dir/cb >/dev/null; \
	  $$exe cache merge $$dir/cm $$dir/ca $$dir/cb; \
	  $$exe batch $$dir/corpus --cache --cache-dir $$dir/cm \
	    | grep -q " 0 analyzed"; \
	  kill -TERM $$pid1 $$pid2; wait $$pid1; wait $$pid2; \
	  $$exe serve --endpoint unix:$$dir/slow.sock \
	    --faults seed=3,slow=1,slow_ms=1300 & pid4=$$!; \
	  i=0; until $$exe client ping --endpoint unix:$$dir/slow.sock \
	      >/dev/null 2>&1; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  echo "$$dir/corpus/saxpy.mc saxpy_chain n=64 reps=2" > $$dir/slow.txt; \
	  $$exe eval-sweep $$dir/slow.txt --endpoint unix:$$dir/slow.sock \
	    --heartbeat-ms 1000 --dispatch-retries 0 > $$dir/slow.out; \
	  [ $$(wc -l < $$dir/slow.out) -eq 1 ]; \
	  [ $$(grep -c "^ok " $$dir/slow.out) -eq 1 ]; \
	  kill -TERM $$pid4; wait $$pid4; \
	  $$exe serve --endpoint unix:$$dir/stall.sock \
	    --faults seed=1,slow=1,slow_ms=20 > /dev/null & pid5=$$!; \
	  i=0; until $$exe client ping --endpoint unix:$$dir/stall.sock \
	      >/dev/null 2>&1; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  ( sleep 0.2; exec $$exe serve --endpoint unix:$$dir/late.sock ) \
	    > $$dir/late.log & pid6=$$!; \
	  $$exe eval-sweep $$dir/sweep.txt --endpoint unix:$$dir/stall.sock \
	    --endpoint unix:$$dir/late.sock --chunk 4 --dispatch-retries 1 \
	    > $$dir/revive.out; \
	  cut -d" " -f1-5 $$dir/revive.out | diff - $$dir/expect.txt; \
	  kill -TERM $$pid5 $$pid6; wait $$pid5; wait $$pid6; \
	  served=$$(sed -n "s/^mira serve: drained; \([0-9]*\) served.*/\1/p" \
	    $$dir/late.log); \
	  echo "late daemon served $$served"; [ "$$served" -gt 0 ]'

# Watch-mode smoke, both surfaces end to end.  Daemon path: a real
# daemon watches a 3-file tree (a.mc's g is also defined in b.mc and
# called by b.mc's h; c.mc is unrelated), a cross-file signature edit
# to a.mc is reanalyzed over the wire, and the streamed frames must
# show the EXACT invalidation set — two edited functions in a.mc, one
# cross:sig:g dependent in b.mc, three binding frames, cross-files=1 —
# with session counters visible on stats.  CLI path: the same edit
# through `mira watch --check`, whose cold-vs-warm gate exits 3 on any
# byte divergence between the incremental model and a cold analysis.
watch-smoke: build
	timeout --kill-after=10 60 sh -ec ' \
	  exe=./_build/default/bin/mira.exe; \
	  dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; \
	  sock=$$dir/mira.sock; \
	  printf "double g(double *a, int n) {\n  double s = 0.0;\n  for (int i = 0; i < n; i++) {\n    s = s + a[i];\n  }\n  return s;\n}\n\ndouble f(double *a, int n) {\n  double t = g(a, n);\n  return t + 1.0;\n}\n" > $$dir/a.mc; \
	  printf "double g(double *a, int n) {\n  double s = 0.0;\n  for (int i = 0; i < n; i++) {\n    s = s + 2.0 * a[i];\n  }\n  return s;\n}\n\ndouble h(double *a, int n) {\n  return g(a, n) * 0.5;\n}\n" > $$dir/b.mc; \
	  printf "int c_only(int n) {\n  int acc = 0;\n  for (int i = 0; i < n; i++) {\n    acc = acc + 3;\n  }\n  return acc;\n}\n" > $$dir/c.mc; \
	  $$exe serve --endpoint unix:$$sock & pid=$$!; \
	  i=0; until $$exe client ping --endpoint unix:$$sock >/dev/null 2>&1; do \
	    i=$$((i+1)); [ $$i -lt 100 ] || exit 1; sleep 0.05; done; \
	  for f in a b c; do \
	    $$exe client watch $$dir/$$f.mc --endpoint unix:$$sock >/dev/null; done; \
	  $$exe client stats --format json --endpoint unix:$$sock \
	    | grep -q "\"key\":\"watch-files\",\"value\":\"3\""; \
	  sed -e "s/double g(double \*a, int n) {/double g(double *a, int n, int reps) {/" \
	      -e "s/g(a, n);/g(a, n, 1);/" $$dir/a.mc > $$dir/a2.mc; \
	  cp $$dir/a2.mc $$dir/a.mc; \
	  $$exe client reanalyze $$dir/a.mc --endpoint unix:$$sock --format json \
	    > $$dir/rz.out; \
	  [ $$(grep -c "\"key\":\"binding\"" $$dir/rz.out) -eq 3 ]; \
	  [ $$(grep -c "\"key\":\"reason\",\"value\":\"edited\"" $$dir/rz.out) -eq 2 ]; \
	  [ $$(grep -c "\"key\":\"reason\",\"value\":\"cross:sig:g\"" $$dir/rz.out) -eq 1 ]; \
	  grep -q "\"key\":\"function\",\"value\":\"h\"" $$dir/rz.out; \
	  grep -q "\"key\":\"reanalyze-done\",\"value\":\"1\"" $$dir/rz.out; \
	  grep -q "\"key\":\"invalidated\",\"value\":\"3\"" $$dir/rz.out; \
	  grep -q "\"key\":\"cross-files\",\"value\":\"1\"" $$dir/rz.out; \
	  grep -q "\"key\":\"clean\",\"value\":\"0\"" $$dir/rz.out; \
	  $$exe client stats --format json --endpoint unix:$$sock \
	    | grep -q "\"key\":\"watch-cross\",\"value\":\"1\""; \
	  $$exe client forget $$dir/c.mc --endpoint unix:$$sock >/dev/null; \
	  kill -TERM $$pid; wait $$pid; \
	  sed -e "s/double g(double \*a, int n, int reps) {/double g(double *a, int n) {/" \
	      -e "s/g(a, n, 1);/g(a, n);/" $$dir/a.mc > $$dir/a1.mc; \
	  cp $$dir/a1.mc $$dir/a.mc; \
	  ( sleep 1; cp $$dir/a2.mc $$dir/a.mc; echo "reanalyze $$dir/a.mc"; \
	    sleep 1; echo quit ) \
	    | $$exe watch $$dir/a.mc $$dir/b.mc $$dir/c.mc --check \
	        --poll-ms 100000 > $$dir/watch.out; \
	  grep -q "invalidated=3 recomputed=3 cross-files=1" $$dir/watch.out; \
	  grep -q "h (cross:sig:g)" $$dir/watch.out'

# Benchmark smoke: each perfbench workload runs for two seconds.
# run.py exits 0 even when one of its gates fails, so the target reads
# the verdict from the last output line, the JSON result, and requires
# "correct": true and "failed": 0.  serve_mixed compares a real
# daemon's answers with in-process results: the end-to-end oracle for
# the cache tiers and compiled evaluation.
perfbench-smoke: build
	for w in cold_batch edit_session serve_mixed; do \
	  echo "== perfbench $$w"; \
	  timeout --kill-after=10 300 \
	    python3 perfbench/run.py --workload $$w --seconds 2 | tail -n 1 \
	  | python3 -c 'import json, sys; r = json.load(sys.stdin); \
	      print("correct=%s failed=%s" % (r["correct"], r["failed"])); \
	      sys.exit(r["correct"] is not True or r["failed"] != 0)' \
	  || exit 1; \
	done

# The paper's tables and figures (section IV) plus the bechamel
# static-vs-dynamic cost suite; drop --fast for the larger workloads.
bench:
	dune exec bench/main.exe -- --fast

clean:
	dune clean
	rm -rf .mira-cache
