#!/usr/bin/env bash
# Where a running process spends CPU, by thread class.
#
#   scripts/prof/threads.sh PID SECS
#
# Reads /proc/PID/task/*/{stat,status} twice, SECS apart, and prints per
# thread class — the thread name up to its first '-' or digit, so
# `reactor-0` and `reactor-1` are one class — how many threads it has and
# what they spent in between: user and system CPU seconds and voluntary /
# involuntary context switches. Threads that start or exit in between are
# left out. Linux only.
set -euo pipefail
pid="${1:?usage: scripts/prof/threads.sh PID SECS}"
secs="${2:?usage: scripts/prof/threads.sh PID SECS}"
tick="$(getconf CLK_TCK)"

# One line per thread: tid class utime stime voluntary involuntary. One
# awk over every file, so a snapshot of a hundred threads takes
# milliseconds; a thread that exits meanwhile is a warning, not an error.
snapshot() {
    awk '
        { split(FILENAME, path, "/"); tid = path[5] }
        # Fields after "pid (comm) ": state is 1st, utime 12th, stime 13th.
        FILENAME ~ /stat$/ { sub(/^.*\) /, ""); u[tid] = $12; s[tid] = $13 }
        /^Name:/ { c[tid] = $2; sub(/[-0-9].*/, "", c[tid]); if (c[tid] == "") c[tid] = $2 }
        /^voluntary_ctxt_switches:/ { v[tid] = $2 }
        /^nonvoluntary_ctxt_switches:/ { i[tid] = $2 }
        END { for (t in v) if (t in u) print t, c[t], u[t], s[t], v[t], i[t] }
    ' /proc/"$pid"/task/*/stat /proc/"$pid"/task/*/status 2>/dev/null || true
}

before="$(snapshot)"
sleep "$secs"
after="$(snapshot)"
awk -v tick="$tick" -v secs="$secs" '
    NR == FNR { u[$1] = $3; s[$1] = $4; v[$1] = $5; i[$1] = $6; next }
    $1 in u {
        n[$2]++; du[$2] += $3 - u[$1]; ds[$2] += $4 - s[$1]
        dv[$2] += $5 - v[$1]; di[$2] += $6 - i[$1]
    }
    END {
        printf "%-16s %7s %9s %9s %12s %12s   (over %s s)\n",
            "class", "threads", "user s", "sys s", "vol cs", "invol cs", secs
        for (c in n)
            printf "%-16s %7d %9.2f %9.2f %12d %12d\n",
                c, n[c], du[c] / tick, ds[c] / tick, dv[c], di[c]
    }' <(echo "$before") <(echo "$after") | { read -r head; echo "$head"; sort; }
