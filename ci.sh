#!/bin/sh
# CI gate: the tier-1 checks (build + test) plus gofmt, vet, the race detector
# (the serve/faults packages are exercised concurrently), the allocation
# pins without the race detector (they skip under it), one shuffled
# run of the serving packages' tests, the nested
# benchmark module's own vet and tests (bench/), short fuzz
# smokes over all nine untrusted decoders (engine plans, timing caches
# and their keys, the framework arch text of Caffe, Darknet and the
# JSON codec's TensorFlow and PyTorch dialects, framework weight payloads,
# and the serving front door's request body and headers), one holding the
# request body's one-pass float conversion to strconv (FuzzScanFloat),
# plus two over
# the FP32 reference convolution and average pool against their frozen
# per-element loops and one over the engine conv and fc kernels against
# theirs,
# the byte comparison of benchtables -all / -ext / -faulttol / -chaos
# with results/ (-all twice: once on one OS thread, so the
# per-image fan-out over every table's engines and the dataset synthesis
# prove their answers do not depend on the schedule; and Tables III-VI
# once more, rendered one at a time), a smoke of rtexec's profiler
# modes (GPU trace, chrome://tracing timeline, tegrastats sample), its
# refusal of -runs below 1 and of -export / -dot on a loaded plan,
# the rtlint static-analysis suite — all eight source analyzers over
# the module (any finding an //rt:allow directive does not silence
# fails the gate, so the tree must stay clean), then static plan-IR verification
# of every classifier engine the results are generated from. Then the
# serving soak on a virtual clock (testing/synctest, behind
# GOEXPERIMENT=synctest): a 2x-overload open-loop run of the netserve
# front end over a real resnet18 Pool of one, under both the FIFO baseline
# and the EDF + WCET-admission discipline, plus a FIFO row that drains
# at a seeded mid-run instant with a tenant on every arrival, whose
# exact outcome is pinned and whose invariants (one terminal answer per
# request, Retry-After on every shed, bounded depth, discipline order,
# clean drain, same-seed determinism; in the drain row, 503 "draining"
# for every later arrival, every earlier one answered before Drain
# returns, every 200 echoing its own tenant) are checked on every run —
# in full, and short under the race detector.
# Run from the repo root.
set -eux

# Formatting is a gate: gofmt must list nothing.
test -z "$(gofmt -l .)"
go vet ./...
go build ./...
go test -race -timeout 20m ./...
# The race detector's instrumentation allocates, so the allocation pins
# (tests named ...Allocs) skip under it: run them once without it.
go test -count=1 -run 'Allocs$' ./internal/core ./internal/kernels ./internal/fixrand ./internal/models
# The serving tests share fixtures (engines, registries, fleets); a
# shuffled order proves none depends on state another test left behind.
go test -shuffle=on -count=1 ./internal/serve ./internal/netserve
# bench/ is a module of its own that ./... neither builds nor tests, yet
# it compiles against core and serve entry points: vet and test it here
# so a deletion that breaks the benchmark fails this gate first.
(cd bench && go vet ./... && go test ./...)
# One fuzz smoke per untrusted decoder, the request body's float
# conversion against strconv, the reference conv and average pool
# against their frozen loops, and the engine conv and fc kernels
# against theirs: package:fuzzer:seconds.
# Minimizing a new input is skipped: by default it can spend a smoke's
# whole budget on one input.
for f in core:FuzzLoad:10 core:FuzzLoadTimingCache:5 core:FuzzParseTimingKey:5 \
  frameworks:FuzzImportWeights:5 \
  frameworks:FuzzImportCaffe:5 frameworks:FuzzImportDarknet:5 frameworks:FuzzImportJSON:5 \
  netserve:FuzzDecodeRequest:5 netserve:FuzzHandleInfer:5 netserve:FuzzScanFloat:5 \
  tensor:FuzzConv2DReference:5 tensor:FuzzAvgPool2DReference:5 \
  kernels:FuzzKernelsMatchFrozenLoops:5; do
  pkg=${f%%:*} rest=${f#*:}
  go test -run='^$' -fuzz="^${rest%:*}\$" -fuzztime="${rest#*:}s" -fuzzminimizetime=0s "./internal/$pkg"
done
# The paper's tables and the extension studies, byte for byte against
# the committed renderings: bench/quick_test.go skips exactly the heavy
# numeric artifacts (Tables III-VI), and nothing else reads
# results/extensions.txt.
go run ./cmd/benchtables -all | cmp - results/alltables.txt
GOMAXPROCS=1 go run ./cmd/benchtables -all | cmp - results/alltables.txt
# Tables IV-VI classify the adversarial set as one group, whichever of
# them is rendered first: rendered one at a time, Tables III-VI must
# still print their block of results/alltables.txt.
one_at_a_time=$(mktemp)
for n in 3 4 5 6; do go run ./cmd/benchtables -table "$n"; done >"$one_at_a_time"
awk '/^Table VII:/ { exit } /^Table III:/ { p = 1 } p' results/alltables.txt | cmp - "$one_at_a_time"
rm -f "$one_at_a_time"
go run ./cmd/benchtables -ext | cmp - results/extensions.txt
# The serving goldens: the replica-fleet chaos soak (its supervisor
# transcripts included) and the fault-tolerance sweep, byte for byte.
go run ./cmd/benchtables -chaos | cmp - results/chaos.txt
go run ./cmd/benchtables -faulttol | cmp - results/faulttol.txt
# The profiler modes no other step runs: the GPU trace, the chrome
# timeline (which must be written) and the tegrastats sample.
chrome=$(mktemp)
go run ./cmd/rtexec -model pednet -platform NX -runs 2 -profile -trace -chrome "$chrome"
test -s "$chrome"
rm -f "$chrome"
go run ./cmd/rtexec -model tiny-yolov3 -platform AGX -tegrastats 36
# Timed runs need -runs of at least 1: 0 and -1 must fail. (A `!` command
# does not trip set -e, hence the if.)
for n in 0 -1; do
  if go run ./cmd/rtexec -model pednet -runs "$n"; then exit 1; fi
done
# A loaded plan carries no model graph: -export and -dot on one must
# fail cleanly (no panic) before any run, and write no file.
plan=$(mktemp) refused=$(mktemp -d)
go run ./cmd/rtexec -model pednet -platform NX -runs 1 -save "$plan"
for flags in "-export caffe -o $refused/out" "-dot $refused/out"; do
  if go run ./cmd/rtexec -load "$plan" $flags 2>"$refused/stderr"; then exit 1; fi
  if grep -q 'panic:' "$refused/stderr"; then exit 1; fi
  test ! -e "$refused/out"
done
rm -rf "$plan" "$refused"
go run ./cmd/rtlint -json ./...
go run ./cmd/rtlint -plancheck
# Serving soak on a virtual clock: the synctest build of netserve must
# vet, pass in full, and pass short under the race detector.
(
  export GOEXPERIMENT=synctest GODEBUG=asynctimerchan=0
  go vet ./internal/netserve
  go test -count=1 -run '^TestVirtualSoak$' ./internal/netserve
  go test -race -short -count=1 -run '^TestVirtualSoak$' ./internal/netserve
)
