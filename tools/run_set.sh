#!/bin/sh
# A fixed small run set over every training and scoring command, then
# the sha256 of each file it wrote except run.json (which holds the wall
# clock), one per line in path order.  Run it in two checkouts and
# compare them with one diff:
#
#   tools/run_set.sh /tmp/a > a.sha; tools/run_set.sh /tmp/b > b.sha
#   diff a.sha b.sha
#
# 32 px, 8/4/4 records, U-Net base 8 and depth 2, 2 epochs per stage:
# gen-data; train --stage all, eval and render in fused mode under the
# dual, image and kspace domains; the fused dual chain trained one
# stage per call; and a four-cell ablate in one worker process.
set -eu
out=${1:?usage: tools/run_set.sh OUT}
root=$(cd "$(dirname "$0")/.." && pwd)
small="--set data.size=32 --set data.n_train=8 --set data.n_val=4
       --set data.n_test=4 --set model.base_channels=8 --set model.depth=2
       --set train.max_epochs=2"

ddmc() {
    PYTHONPATH="$root/src" python3 -m ddmc.cli "$@" >/dev/null
}

ddmc gen-data --out "$out/data" $small
for domain in dual image kspace; do
    cfg="$small --set train.domain_mode=$domain"
    ddmc train --data "$out/data" --out "$out/$domain/train" $cfg
    for cmd in eval render; do
        ddmc $cmd --data "$out/data" --ckpt-dir "$out/$domain/train" \
            --out "$out/$domain/$cmd" $cfg
    done
done
for stage in synthesis registration reconstruction; do
    ddmc train --data "$out/data" --out "$out/stages" --stage $stage $small
done
DDMC_THREADS=1 ddmc ablate --data "$out/data" --out "$out/ablate" $small \
    --grid "dual,single,4x;image,concat,4x;kspace,concat,4x;kspace,fused,4x"

cd "$out"
find . -type f ! -name run.json | LC_ALL=C sort | xargs sha256sum
