#!/usr/bin/env bash
# The installed console script end to end: packaged keyword data, no PYTHONPATH.
# Run it from an empty scratch directory, with the package installed:
#   bash .github/scripts/installed_end_to_end.sh
set -eu
unset PYTHONPATH
mkdir -p installed-run && cd installed-run
# the package root binds no name over its submodules
python3 -c 'import botimpact.ghic as m, types; assert isinstance(m, types.ModuleType)'
printf '%s\n' 'seed = 3' 'topology = two_block_polarized' 'days = 2' \
  'humans_per_block = 12' 'bots_per_block = 3' 'qanon_bot_frac = 0.5' \
  'bot_rate = 20.0' 'retweet_frac = 0.6' > spec.txt
printf '%s\n' 'tweets = corpus/tweets.jsonl' 'profiles = corpus/profiles.jsonl' \
  'ratings = corpus/ratings.csv' 'out_dir = out' \
  'bp_psi_hh = 1.5' 'bp_psi_hb = 2.0' 'bp_psi_bh = 1.0' 'bp_psi_bb = 0.5' > run.cfg
botimpact --out corpus synth --spec spec.txt
# synth again in a fresh process writes the same bytes
botimpact --out corpus2 synth --spec spec.txt
diff -r corpus corpus2
# a negative seed is a configuration problem, not a traceback
status=0
botimpact --out corpus3 --seed -1 synth --spec spec.txt || status=$?
test "$status" -eq 2
for stage in build detect-bots classify ghic report; do
  botimpact --config run.cfg "$stage"
done
test -s out/report.txt
# out holds exactly the files the manifest entries list, plus the manifest
# and the report, so a file written but not listed fails
python3 -c '
import json, os, sys
listed = {"manifest.json", "report.txt"}
for entry in json.load(open("out/manifest.json")).values():
    listed |= set(entry["checksums"])
odd = sorted(listed.symmetric_difference(os.listdir("out")))
sys.exit(f"out/ and its manifest disagree on {odd}" if odd else 0)
'
# ghic counts every active day once: days_computed is the days of
# ghic_series.csv, computed plus skipped is the days of daily_active.csv, and
# a computed day has one row per group
python3 -c '
import csv, json, sys
def rows(name):
    with open("out/" + name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
ghic = json.load(open("out/manifest.json"))["ghic"]
computed, skipped = ghic["days_computed"], ghic["days_skipped"]
series = rows("ghic_series.csv")
days = {r["day"] for r in series}
active = {r["day"] for r in rows("daily_active.csv")}
problems = []
if computed != len(days):
    problems.append(f"days_computed {computed}, {len(days)} days in ghic_series.csv")
if computed + skipped != len(active):
    problems.append(f"{computed} computed + {skipped} skipped days, "
                    f"{len(active)} in daily_active.csv")
if sorted((r["day"], r["group"]) for r in series) != sorted(
        (d, g) for d in days for g in ghic["groups"]):
    problems.append("ghic_series.csv lacks one row per computed day and group")
sys.exit("; ".join(problems) or 0)
'
# ghic_series.csv is the installed library's ghic on each day's full induced
# arrays, so the edges the stage drops before any day move no bit
cat > ghic_check.py <<'PY'
import csv, sys
from pathlib import Path
import numpy as np
from botimpact import ghic, graph, opinion, pipeline
out = Path(sys.argv[1])
def rows(name):
    with open(out / name, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))
accounts = pipeline.load_accounts(out)
_, src, tgt, _ = graph.load_columns(out / "follower.cols", accounts)
table = pipeline.account_table(out, accounts)
groups = table.groups
fixed = opinion.identify_stubborn(table.opinion, groups["all_bots"], table.scored)
index = {account: i for i, account in enumerate(accounts)}
active = {}
for row in rows("daily_active.csv"):
    active.setdefault(row["day"], np.zeros(len(accounts), dtype=bool))[index[row["account_id"]]] = True
want = {}
for day, mask in active.items():
    edge = mask[src] & mask[tgt]
    position = np.cumsum(mask) - 1
    network = (position[src[edge]], position[tgt[edge]], table.tweet_rate[mask], fixed[mask],
               table.opinion[mask])
    full = opinion.solve_network(*network)
    if not full[1].all():
        for name, members in groups.items():
            want[day, name] = format(ghic.ghic(network, full, members[mask]).value, ".10g")
got = {(r["day"], r["group"]): r["ghic"] for r in rows("ghic_series.csv")}
sys.exit(0 if got == want and got else f"ghic_series.csv {got}, recomputed {want}")
PY
python3 ghic_check.py out
# the five stages again in fresh processes, so with other string hash
# seeds; in a copy of the directory, as the manifest records out_dir
mkdir out2 && cp -r corpus run.cfg out2/
(cd out2 && for stage in build detect-bots classify ghic report; do
  botimpact --config run.cfg "$stage"
done)
diff -r out out2/out
# a manifest of the wrong shape is unreadable: report exits 3, and build
# starts a fresh manifest; so is one whose build entry has no window, which
# classify refuses; in a copy of out
mkdir badmanifest && cp -r corpus run.cfg out badmanifest/
(cd badmanifest
  cp out/manifest.json good.json
  echo '[]' > out/manifest.json
  status=0
  botimpact --config run.cfg report || status=$?
  test "$status" -eq 3
  python3 -c '
import json
manifest = json.load(open("good.json"))
del manifest["build"]["window"]
json.dump(manifest, open("out/manifest.json", "w"))
'
  status=0
  botimpact --config run.cfg classify 2> classify.err || status=$?
  test "$status" -eq 3
  grep -q 'rerun build' classify.err
  botimpact --config run.cfg build)
# a qanon_keywords file of the packaged terms in upper and mixed case, one
# of them in its hashtag form, flags the same accounts as the packaged list
# the runs above read, and some are flagged
printf '%s\n' '#WWG1WGA' 'QAnon' 'TheGreatAwakening' > out2/qanon.txt
(cd out2 && echo 'qanon_keywords = qanon.txt' >> run.cfg && botimpact --config run.cfg classify)
cmp out/accounts.csv out2/out/accounts.csv
cmp out/group_summary.csv out2/out/group_summary.csv
python3 -c '
import csv, sys
rows = list(csv.DictReader(open("out/accounts.csv", newline="", encoding="utf-8")))
sys.exit(0 if any(r["qanon"] == "1" for r in rows) else "no account is flagged Qanon")
'
# classify with a ratings file that writes the synth domains in upper case
# with a leading dot and lists the first shared URL's domain again at 5,
# where the later row wins: media_quality is the README rule recomputed
# from account_content.jsonl, and differs from the plain run's; in a copy
mkdir ratings && cp -r corpus run.cfg out ratings/
(cd ratings
  python3 -c '
import csv, json
rows = list(csv.reader(open("corpus/ratings.csv", newline="", encoding="utf-8")))[1:]
urls = [u for line in open("out/account_content.jsonl", encoding="utf-8")
        for u in json.loads(line)["urls"]]
repeated = urls[0].split("/")[2]
with open("odd_ratings.csv", "w", newline="", encoding="utf-8") as fh:
    csv.writer(fh).writerows([("domain", "rating"), *(("." + d.upper(), r) for d, r in rows),
                              (repeated, "5")])
'
  echo 'ratings = odd_ratings.csv' >> run.cfg
  botimpact --config run.cfg classify
  python3 -c '
import csv, json, sys
from functools import reduce
from urllib.parse import urlsplit
with open("odd_ratings.csv", newline="", encoding="utf-8") as fh:
    ratings = {r["domain"].strip().casefold().lstrip("."): float(r["rating"])
               for r in csv.DictReader(fh)}
def rating(url):
    try:
        host = urlsplit(url if "//" in url else "//" + url).hostname
    except ValueError:
        return None
    labels = host.casefold().split(".") if host else []
    suffixes = (".".join(labels[i:]) for i in range(len(labels)))
    return next((ratings[s] for s in suffixes if s in ratings), None)
def quality(urls):
    rated = [r for r in map(rating, urls) if r is not None]
    return f"{reduce(lambda t, x: t + x, rated, 0.0) / len(rated):.10g}" if rated else ""
expected = [quality(json.loads(line)["urls"])
            for line in open("out/account_content.jsonl", encoding="utf-8")]
def column(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [r["media_quality"] for r in csv.DictReader(fh)]
got, plain = column("out/accounts.csv"), column("../out/accounts.csv")
if got != expected:
    sys.exit("media_quality differs from the README rule")
sys.exit(0 if got != plain and any(got) else "the repeated domain row changed nothing")
'
  # a row whose domain is empty after stripping its dots is malformed
  printf '%s\n' 'domain,rating' 'site01.example,2' ' .,3' > empty_domain.csv
  echo 'ratings = empty_domain.csv' >> run.cfg
  status=0
  botimpact --config run.cfg classify 2> empty_domain.err || status=$?
  test "$status" -eq 3
  grep -q 'empty_domain.csv, line 3: no domain' empty_domain.err
  # so is a domain that holds a character no host name can hold
  printf '%s\n' 'domain,rating' 'https://site01.example,3' > url_domain.csv
  echo 'ratings = url_domain.csv' >> run.cfg
  status=0
  botimpact --config run.cfg classify 2> url_domain.err || status=$?
  test "$status" -eq 3
  grep -q 'url_domain.csv, line 2: domain' url_domain.err)
# gzip copies of the inputs build the same files; only manifest.json, which
# records the input paths, differs
mkdir gz
gzip -c corpus/tweets.jsonl > gz/tweets.jsonl.gz
gzip -c corpus/profiles.jsonl > gz/profiles.jsonl.gz
cp run.cfg gz.cfg
printf '%s\n' 'tweets = gz/tweets.jsonl.gz' 'profiles = gz/profiles.jsonl.gz' \
  'out_dir = outgz' >> gz.cfg
botimpact --config gz.cfg build
python3 -c '
import json
print("\n".join(sorted(json.load(open("out/manifest.json"))["build"]["checksums"])))
' > plain.files
(cd outgz && LC_ALL=C ls | grep -vx manifest.json) > gz.files
diff plain.files gz.files
while read -r name; do cmp "out/$name" "outgz/$name"; done < gz.files
# a truncated gzip tweets file exits 3 and names the file
head -c 100 gz/tweets.jsonl.gz > gz/truncated.jsonl.gz
cp gz.cfg truncated.cfg
echo 'tweets = gz/truncated.jsonl.gz' >> truncated.cfg
status=0
botimpact --config truncated.cfg build 2> truncated.err || status=$?
test "$status" -eq 3
grep -q 'gz/truncated.jsonl.gz: unreadable' truncated.err
# a second corpus built into out retires classify, so ghic must refuse,
# and the first corpus's report is gone
botimpact --out corpus --seed 4 synth --spec spec.txt
botimpact --config run.cfg build
test ! -e out/report.txt
status=0
botimpact --config run.cfg ghic || status=$?
test "$status" -eq 3
# belief propagation's numerics, the histogram width, the GHIC groups and the
# stubborn percentiles are constants: a config that sets one of their old keys
# is a configuration problem, before any stage runs
for key in bp_damping bp_max_iterations bp_tolerance histogram_bins ghic_groups \
  stubborn_low_pct stubborn_high_pct; do
  cp run.cfg "$key.cfg"
  echo "$key = 20" >> "$key.cfg"
  status=0
  botimpact --config "$key.cfg" build 2> "$key.err" || status=$?
  test "$status" -eq 2
  grep -q "unknown key '$key'" "$key.err"
done
# without a ratings file classify warns, exits 0 and leaves media_quality empty
cp run.cfg noratings.cfg
echo 'ratings = corpus/no_such_ratings.csv' >> noratings.cfg
botimpact --config noratings.cfg detect-bots
botimpact --config noratings.cfg classify 2> classify.err
grep -q 'no_such_ratings.csv missing; media quality columns left empty' classify.err
python3 -c '
import csv, sys
accounts, summary = (list(csv.DictReader(open("out/" + name, newline="", encoding="utf-8")))
                     for name in ("accounts.csv", "group_summary.csv"))
empty = (accounts and all(r["media_quality"] == "" for r in accounts)
         and all(r["mean_media_quality"] == "" for r in summary))
sys.exit(0 if empty else "media_quality or mean_media_quality is set")
'
# a tweets line that is not UTF-8 is counted as skipped, not fatal
cp corpus/tweets.jsonl not_utf8.jsonl
printf '{"x": "\377"}\n' >> not_utf8.jsonl
cp run.cfg not_utf8.cfg
echo 'tweets = not_utf8.jsonl' >> not_utf8.cfg
botimpact --config not_utf8.cfg build
python3 -c '
import json, sys
skipped = json.load(open("out/manifest.json"))["build"]["tweets_skipped"]
sys.exit(0 if skipped == 1 else f"tweets_skipped is {skipped}, not 1")
'
# detect-bots writes 20 histogram bins, which count every posterior row once,
# and bots.txt is the sorted ids with some posterior above the 0.8 default
cp run.cfg bins.cfg
botimpact --config bins.cfg detect-bots
python3 -c '
import csv, glob, sys
def rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))
posteriors = [row for path in glob.glob("out/posterior_*.csv") for row in rows(path)[1:]]
counts = [int(row[2]) for row in rows("out/histogram.csv")[1:]]
if len(counts) != 20 or sum(counts) != len(posteriors):
    sys.exit(f"histogram counts {counts} for {len(posteriors)} posterior rows")
flagged = sorted({row[0] for row in posteriors if float(row[1]) > 0.8})
bots = [row[0] for row in rows("out/bots.txt")]
sys.exit(0 if bots == flagged else f"bots.txt lists {bots}, posteriors above 0.8 {flagged}")
'
# outputs do not depend on the BLAS thread count: the amplifier-1.6k
# benchmark spec (1,178 unknowns per day at seed 11, where BiCGSTAB's dot
# products run through BLAS) runs its five stages twice in fresh processes,
# first with the runner's default threads and then with one, as the
# benchmark runs, and both write the same trees
mkdir amplifier && cd amplifier
printf '%s\n' 'seed = 11' 'topology = planted_bot_retweet' 'days = 2' 'n_bots = 100' \
  'n_humans = 1500' 'human_rate = 1.0' 'bot_rate = 40.0' 'bot_rt_human = 20.0' \
  'human_rt_human = 8.0' > spec.txt
botimpact --out corpus synth --spec spec.txt
cp ../run.cfg .
mkdir again && cp -r corpus run.cfg again/
for stage in build detect-bots classify ghic report; do
  botimpact --config run.cfg "$stage"
done
(cd again && for stage in build detect-bots classify ghic report; do
  OPENBLAS_NUM_THREADS=1 botimpact --config run.cfg "$stage"
done)
test -s out/ghic_series.csv
diff -r out again/out
python3 ../ghic_check.py out
