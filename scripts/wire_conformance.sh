#!/usr/bin/env sh
# wire_conformance.sh — wire-protocol smoke over real sockets: for each
# codec (raw, lzw, bzw), one direct avis-server/avis-client session and
# one session placed through an avis-coord coordinator (the server
# registered by its agent, the client resolved by the coordinator). Each
# session dumps its reconstructed pixels (float64 LE); every dump must be
# byte-identical to the first, since all codecs are lossless.
#
#   scripts/wire_conformance.sh            # all sessions (~10s)
#   KEEP_TMP=1 scripts/wire_conformance.sh # leave dumps behind on failure
set -eu

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
cleanup() {
	[ -n "${SRV_PID:-}" ] && kill "$SRV_PID" 2>/dev/null || true
	[ -n "${COORD_PID:-}" ] && kill "$COORD_PID" 2>/dev/null || true
	wait 2>/dev/null || true
	[ "${KEEP_TMP:-0}" = "1" ] || rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

echo "== build"
go build -o "$TMP/avis-server" ./cmd/avis-server
go build -o "$TMP/avis-client" ./cmd/avis-client
go build -o "$TMP/avis-coord" ./cmd/avis-coord
go build -o "$TMP/portprobe" ./scripts/internal/portprobe

SIDE=256 LEVELS=4 IMAGES=2
SRV_ADDR=127.0.0.1:7471
COORD_ADDR=127.0.0.1:7671

# wait_port HOST:PORT — poll until something listens there.
wait_port() {
	i=0
	while ! "$TMP/portprobe" "$1" 2>/dev/null; do
		i=$((i + 1))
		[ $i -ge 50 ] && { echo "timeout waiting for $1" >&2; exit 1; }
		sleep 0.1
	done
}

# session CODEC OUT — one direct data-plane session.
session() {
	"$TMP/avis-server" -addr $SRV_ADDR -side $SIDE -levels $LEVELS -images $IMAGES &
	SRV_PID=$!
	wait_port $SRV_ADDR
	"$TMP/avis-client" -addr $SRV_ADDR -n $IMAGES -level $LEVELS -codec "$1" -dump "$2" >/dev/null
	kill $SRV_PID
	wait $SRV_PID 2>/dev/null || true
	SRV_PID=
}

# coord_session CODEC OUT — a session placed through a coordinator.
coord_session() {
	"$TMP/avis-coord" -addr $COORD_ADDR &
	COORD_PID=$!
	wait_port $COORD_ADDR
	"$TMP/avis-server" -addr $SRV_ADDR -side $SIDE -levels $LEVELS -images $IMAGES \
		-coord $COORD_ADDR -heartbeat 200ms &
	SRV_PID=$!
	wait_port $SRV_ADDR
	sleep 0.5 # let registration land
	"$TMP/avis-client" -coord $COORD_ADDR -n $IMAGES -level $LEVELS -codec "$1" -dump "$2" >/dev/null
	kill $SRV_PID $COORD_PID
	wait $SRV_PID $COORD_PID 2>/dev/null || true
	SRV_PID= COORD_PID=
}

n=0
for codec in raw lzw bzw; do
	echo "== $codec: direct and coordinator-placed sessions"
	session "$codec" "$TMP/direct-$codec.bin"
	coord_session "$codec" "$TMP/placed-$codec.bin"
	for f in direct-$codec placed-$codec; do
		cmp "$TMP/direct-raw.bin" "$TMP/$f.bin" || {
			echo "wire_conformance: $f differs from direct-raw" >&2
			exit 1
		}
		n=$((n + 1))
	done
done
echo "   $n/6 sessions byte-identical ($(wc -c <"$TMP/direct-raw.bin") bytes each)"

echo "wire_conformance: OK"
