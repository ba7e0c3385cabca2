"""The repo benchmark: five long-run workloads, end-to-end wall / CPU /
set-up / RSS from untraced runs, and an outside-in per-layer ledger from
a separate traced pass.  See README.md in this directory."""
