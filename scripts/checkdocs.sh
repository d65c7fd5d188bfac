#!/bin/sh
# checkdocs.sh — the documentation gate, run by `make docs` (part of `make ci`).
#
# Fails when:
#   - any Go file is not gofmt-formatted,
#   - `go vet` reports a problem,
#   - an exported identifier in the audited packages (internal/fpset,
#     internal/explorer, internal/ranking, internal/scenario,
#     internal/shrink, internal/conformance, internal/transport,
#     internal/serve, internal/sandtable, internal/trace, internal/obs)
#     lacks a doc comment, or an audited package lacks a package doc
#     comment,
#   - a required operator document (README.md, ARCHITECTURE.md,
#     OPERATIONS.md, EXPERIMENTS.md) is missing,
#   - a relative link in any *.md file points at a missing file.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...

exec go run ./scripts/checkdocs
