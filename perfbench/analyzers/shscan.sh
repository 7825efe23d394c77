#!/bin/sh
# JSON-output analyzer for the benchmark's spawn campaign.
#
# Usage: sh shscan.sh CONTRACT.sol
#
# Reports every line containing "tx.origin" (check tx-origin) or
# "selfdestruct" (check suicidal) as {"findings": [{"check", "line"}]}.
# A contract whose name is listed in $PERFBENCH_TIMEOUT sleeps until the
# harness kills it; one listed in $PERFBENCH_FAIL exits 3.  Only shell
# builtins run before the final exec, so a task that times out is a single
# process with no children of its own.
name=
n=0
out=
while IFS= read -r line || [ -n "$line" ]; do
    n=$((n + 1))
    case $line in
        *tx.origin*) out="$out${out:+, }{\"check\": \"tx-origin\", \"line\": $n}" ;;
    esac
    case $line in
        *selfdestruct*) out="$out${out:+, }{\"check\": \"suicidal\", \"line\": $n}" ;;
    esac
    if [ -z "$name" ]; then
        case $line in
            "contract "*) name=${line#contract }; name=${name%% *} ;;
        esac
    fi
done < "$1"
case " $PERFBENCH_TIMEOUT " in
    *" $name "*) exec sleep 60 ;;
esac
case " $PERFBENCH_FAIL " in
    *" $name "*) echo "planted failure in $name" >&2; exit 3 ;;
esac
printf '{"findings": [%s]}\n' "$out"
