#!/bin/sh
# CI gate: the tier-1 checks (build + test) plus vet, the race detector
# (the serve/faults packages are exercised concurrently), the nested
# benchmark module's own vet and tests (bench/), short fuzz
# smokes over every untrusted decoder (engine plans, timing caches and
# their keys, predictor files, framework arch text and weight payloads,
# and the serving front door's request body and headers),
# the byte comparison of benchtables -all / -ext with results/, the
# shared-timing-cache fleet-convergence audit (warm rebuilds
# must be byte-identical), the chaos smoke (a short replica-fleet soak
# that must show zero wrong-answer escapes and zero leaked quarantines),
# the rtlint static-analysis suite — all eight source analyzers over
# the module, diffed against the checked-in rtlint_baseline.json ledger
# (any finding not in the ledger fails the gate; the ledger is currently
# empty, so the tree must stay clean), then static plan-IR verification
# of every classifier engine the results are generated from. Then the
# serving soak on a virtual clock (testing/synctest, behind
# GOEXPERIMENT=synctest): a 2x-overload open-loop run of the netserve
# front end over a real resnet18 executor, under both the FIFO baseline
# and the EDF + WCET-admission discipline, whose exact outcome is
# pinned and whose invariants (one terminal answer per request, Retry-
# After on every shed, bounded depth, discipline order, clean drain,
# same-seed determinism) are checked on every run — in full, and short
# under the race detector.
# Finally the cluster chaos soak: a partitioned NX/AGX pipeline under a
# seeded mid-stream stage kill plus link noise, run under the race
# detector, gated on zero lost frames, bit-identical answered outputs
# against the fault-free baseline, and bounded recovery; its partition
# choice and recovery metrics archive as BENCH_cluster.json. Last, the
# learned-predictor cold-build benchmark (cmd/predbench): the model zoo
# built unpruned vs pruned with a freshly trained latency predictor,
# gated on byte-identical tactic choices and a >=50% cut in modeled
# tactic-timing cost, archived as BENCH_build.json.
# Run from the repo root.
set -eux

go vet ./...
go build ./...
go test -race -timeout 20m ./...
# bench/ is a module of its own that ./... neither builds nor tests, yet
# it compiles against core and serve entry points: vet and test it here
# so a deletion that breaks the benchmark fails this gate first.
(cd bench && go vet ./... && go test ./...)
# One fuzz smoke per untrusted decoder: package:fuzzer:seconds.
for f in core:FuzzLoad:10 core:FuzzLoadTimingCache:5 core:FuzzParseTimingKey:5 \
  latpred:FuzzLoadModel:5 frameworks:FuzzImportWeights:5 \
  frameworks:FuzzImportCaffe:5 frameworks:FuzzImportDarknet:5 \
  netserve:FuzzDecodeRequest:5 netserve:FuzzHandleInfer:5; do
  pkg=${f%%:*} rest=${f#*:}
  go test -run='^$' -fuzz="^${rest%:*}\$" -fuzztime="${rest#*:}s" "./internal/$pkg"
done
# The paper's tables and the extension studies, byte for byte against
# the committed renderings: bench/quick_test.go skips exactly the heavy
# numeric artifacts (Tables III-VI), and nothing else reads
# results/extensions.txt.
go run ./cmd/benchtables -all | cmp - results/alltables.txt
go run ./cmd/benchtables -ext | cmp - results/extensions.txt
go run ./cmd/fleetcheck -model resnet18 -sharedCache
go run ./cmd/chaosbench -smoke -requests 30 -out ''
go run ./cmd/rtlint -json -baseline rtlint_baseline.json ./...
go run ./cmd/rtlint -plancheck
# Serving soak on a virtual clock: the synctest build of netserve must
# vet, pass in full, and pass short under the race detector.
(
  export GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0
  go vet ./internal/netserve
  go test -count=1 -run '^TestVirtualSoak$' ./internal/netserve
  go test -race -short -count=1 -run '^TestVirtualSoak$' ./internal/netserve
)
# Cluster chaos soak: mid-stream stage death must recover with zero
# lost frames and bit-identical answers (see cmd/clusterbench).
go run -race ./cmd/clusterbench -smoke | go run ./cmd/benchjson -out BENCH_cluster.json
# Learned-predictor cold-build benchmark: the zoo built unpruned and
# pruned with a freshly trained latency predictor. The run itself gates
# byte-identical tactic choices and a >=50% tactic-timing cost cut; both
# result lines archive as BENCH_build.json so the speedup is diffable.
go run ./cmd/predbench | go run ./cmd/benchjson -out BENCH_build.json
