#!/usr/bin/env bash
# Static checks for the repository, run by CI's lint job and locally before
# sending a change:
#
#   1. go vet          — the stock toolchain checks;
#   2. analysis        — go test ./internal/analysis: the measured packages'
#                        import allowlist (TestMeasuredImports), the one
#                        static check; the goldens in go test ./... pin
#                        everything else (DESIGN.md §7a);
#   3. gofmt           — formatting for tracked Go files (git ls-files, so
#                        untracked scratch directories like .seedtree/ never
#                        fail lint);
#   4. inlining        — the typed accessors that wrap core's one out-of-line
#                        load/store, the functions every simulated load and
#                        store inlines inside it, and the run queue's
#                        head-time read in the yield-elision test must stay
#                        within the compiler's inlining budget (DESIGN.md §3a
#                        items 1 and 3).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== analysis =="
go test -count=1 ./internal/analysis

echo "== gofmt =="
unformatted=$(git ls-files -- '*.go' | xargs -r gofmt -l)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== inlining =="
inlinable=$(go build -gcflags=-m ./internal/vm ./internal/cache ./internal/sim ./internal/core 2>&1 |
    sed -n 's/.*: can inline //p')
for fn in '(*Space).ReadFrame' '(*Space).WriteFrame' '(*L1).Access' \
    '(*Proc).Advance' '(*Proc).CheckpointQuiet' '(*runQueue).headTime' \
    'F64Array.At' 'F64Array.Set' 'I64Array.At' 'I64Array.Set' \
    '(*Proc).ReadF64' '(*Proc).WriteF64' '(*Proc).ReadI64' '(*Proc).WriteI64'; do
    if ! grep -qxF -- "$fn" <<<"$inlinable"; then
        echo "$fn is no longer inlinable: the shared-access or elided-yield fast path now pays a call for it" >&2
        exit 1
    fi
done

echo "lint OK"
