#!/bin/sh
# stack.sh brings up a named set of serving processes on loopback, runs a
# command against them, and tears everything down again.
#
#   scripts/stack.sh gateway <command...>   2 btserve replicas + btgate
#
# The binaries are built once into a scratch directory whose path the
# command sees as $BIN (btload is there too). Each process is waited for
# by polling its health endpoint against a deadline, never by sleeping a
# guessed interval. On any exit the processes are killed, and if the
# command failed their logs are printed.
#
#   gateway: replicas 127.0.0.1:18091/:18092 (debug :16061/:16062),
#            gateway 127.0.0.1:18080 (debug :16060)
set -eu

usage() {
	echo "usage: $0 gateway command [args...]" >&2
	exit 2
}
[ $# -ge 2 ] || usage
stack=$1
shift

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
pids=""

cleanup() {
	status=$?
	trap - EXIT
	# shellcheck disable=SC2086
	[ -z "$pids" ] || kill $pids 2>/dev/null || true
	wait 2>/dev/null || true
	if [ "$status" -ne 0 ]; then
		for f in "$dir"/*.log; do
			[ -f "$f" ] || continue
			echo "--- $f" >&2
			tail -n 30 "$f" >&2
		done
	fi
	rm -rf "$dir"
	exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

# start NAME COMMAND...: run in the background, logging to $dir/NAME.log.
start() {
	name=$1
	shift
	"$@" >"$dir/$name.log" 2>&1 &
	pids="$pids $!"
}

# await URL [PATTERN]: poll until URL answers 2xx (and its body matches
# PATTERN), or give up after 20 s.
await() {
	deadline=$(($(date +%s) + 20))
	until curl -sf "$1" 2>/dev/null | grep -q "${2:-.}"; do
		if [ "$(date +%s)" -ge "$deadline" ]; then
			echo "stack.sh: $1 not ready within 20s" >&2
			exit 1
		fi
		sleep 0.1
	done
}

case $stack in
gateway)
	go build -o "$dir" ./cmd/btserve ./cmd/btgate ./cmd/btload
	start replica1 "$dir/btserve" -addr 127.0.0.1:18091 -debug-addr 127.0.0.1:16061
	start replica2 "$dir/btserve" -addr 127.0.0.1:18092 -debug-addr 127.0.0.1:16062
	await http://127.0.0.1:18091/healthz
	await http://127.0.0.1:18092/healthz
	start gateway "$dir/btgate" -addr 127.0.0.1:18080 \
		-replicas http://127.0.0.1:18091,http://127.0.0.1:18092 \
		-debug-addr 127.0.0.1:16060
	await http://127.0.0.1:18080/healthz
	;;
*)
	usage
	;;
esac

BIN=$dir "$@"
