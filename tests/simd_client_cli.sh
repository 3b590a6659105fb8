#!/bin/sh
# Drive simd_client against a live simd_server on loopback.
#
#   simd_client_cli.sh <simd_server> <simd_client> <case>
#
# hit-rate       a cold request fails --expect-hit-rate=1; the same
#                request, replayed from the server's cache, meets it.
# interrupt      SIGINT while the first request waits on a stopped
#                server: once the server resumes, that request finishes,
#                the other 47 jobs end as CANCELLED and the exit is 130.
# second-signal  SIGINT, then SIGTERM, while a request never returns:
#                the second signal ends the client (exit 143).
set -u
server=$1 client=$2 case=$3
dir=$(mktemp -d)
spid=

cleanup() {
    if [ -n "$spid" ]; then
        kill -CONT "$spid" 2>/dev/null
        kill -KILL "$spid" 2>/dev/null
        wait "$spid" 2>/dev/null
    fi
    rm -rf "$dir"
}
trap cleanup EXIT

fail() {
    echo "FAIL: $*"
    cat "$dir"/*.err 2>/dev/null
    exit 1
}

"$server" --port=0 --cache-dir="$dir/cache" --executors=1 \
    >"$dir/server.out" 2>"$dir/server.err" &
spid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$dir/server.out" 2>/dev/null && break
    sleep 0.1
done
port=$(grep -o '[0-9]*$' "$dir/server.out") || fail "server did not start"

# Start a 48-job sweep against the stopped server; its first request
# (the HELLO round trip) then waits for an answer with no deadline.
start_blocked_sweep() {
    kill -STOP "$spid"
    "$client" --port="$port" --default --jobs=1 --sms=1 --rounds=1 \
        2>"$dir/client.err" &
    cpid=$!
    sleep 2 # the client is now past startup and waiting on the server
}

case $case in
hit-rate)
    for pass in cold warm; do
        "$client" --port="$port" --workload=VectorAdd --sms=1 --rounds=1 \
            --expect-hit-rate=1 2>"$dir/$pass.err"
        eval "${pass}_status=$?"
    done
    [ "$cold_status" -eq 1 ] &&
        grep -q 'FAIL: hit rate 0 below expected 1' "$dir/cold.err" ||
        fail "cold request: exit $cold_status, expected a hit-rate failure"
    [ "$warm_status" -eq 0 ] ||
        fail "warm request: exit $warm_status, expected 0"
    ;;
interrupt)
    start_blocked_sweep
    kill -INT "$cpid"
    sleep 0.5
    kill -CONT "$spid"
    wait "$cpid"
    status=$?
    [ "$status" -eq 130 ] || fail "exit $status, expected 130"
    grep -q '^interrupted: 1/48 jobs completed (47 cancelled)$' \
        "$dir/client.err" || fail "no interruption summary"
    ;;
second-signal)
    start_blocked_sweep
    kill -INT "$cpid"
    sleep 0.5
    kill -TERM "$cpid"
    (sleep 10 && kill -KILL "$cpid") >/dev/null 2>&1 &
    wait "$cpid"
    status=$?
    [ "$status" -ne 137 ] || fail "the client outlived a second signal"
    [ "$status" -eq 143 ] || fail "exit $status, expected 143"
    ;;
*)
    fail "unknown case $case"
    ;;
esac
if grep -q 'Sanitizer\|runtime error:' "$dir"/*.err; then
    fail "sanitizer report"
fi
echo "PASS: $case"
