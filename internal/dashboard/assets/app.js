// Operator dashboard: vanilla JS + hand-rolled SVG. Data contracts:
//   GET api/config                      → {title, federations, replay}
//   GET <fed>/metrics                   → {cumulative: Summary, current: RoundMetrics|null}
//   GET <fed>/rounds?since=N            → {cursor, rounds: [{cursor, audit}]}
//   GET /metrics.json                   → {families: [{name, type, help, series}]}
//   GET api/replay/{runs,rounds,diff}   → time-travel + diff
"use strict";

const $ = (sel, el) => (el || document).querySelector(sel);
const el = (tag, attrs, ...kids) => {
  const n = document.createElement(tag);
  for (const [k, v] of Object.entries(attrs || {})) {
    if (k === "class") n.className = v;
    else if (k.startsWith("on")) n.addEventListener(k.slice(2), v);
    else n.setAttribute(k, v);
  }
  for (const k of kids) n.append(k);
  return n;
};
const fmt = (v, d) => (v == null || Number.isNaN(v)) ? "–" : v.toFixed(d == null ? 3 : d);
const pct = v => (v == null || Number.isNaN(v)) ? "–" : (100 * v).toFixed(1) + "%";

// ---- SVG helpers -----------------------------------------------------------

const SVGNS = "http://www.w3.org/2000/svg";
function svg(w, h) {
  const s = document.createElementNS(SVGNS, "svg");
  s.setAttribute("viewBox", `0 0 ${w} ${h}`);
  return s;
}
function sEl(parent, tag, attrs) {
  const n = document.createElementNS(SVGNS, tag);
  for (const [k, v] of Object.entries(attrs)) n.setAttribute(k, v);
  parent.append(n);
  return n;
}

// lineChart renders series = [{name, color, points: [y|null per x]}] over a
// shared integer x axis (labels), y clamped to [0,1].
function lineChart(labels, series, W, H) {
  W = W || 460; H = H || 160;
  const padL = 34, padB = 18, padT = 6, padR = 6;
  const s = svg(W, H);
  const iw = W - padL - padR, ih = H - padT - padB;
  const x = i => padL + (labels.length > 1 ? i * iw / (labels.length - 1) : iw / 2);
  const y = v => padT + (1 - Math.max(0, Math.min(1, v))) * ih;
  for (const g of [0, 0.25, 0.5, 0.75, 1]) {
    sEl(s, "line", { x1: padL, y1: y(g), x2: W - padR, y2: y(g), stroke: "#2c3440", "stroke-width": 0.5 });
    sEl(s, "text", { x: padL - 4, y: y(g) + 3, fill: "#7d8794", "font-size": 9, "text-anchor": "end" }).textContent = g;
  }
  const step = Math.max(1, Math.ceil(labels.length / 8));
  labels.forEach((lab, i) => {
    if (i % step) return;
    sEl(s, "text", { x: x(i), y: H - 4, fill: "#7d8794", "font-size": 9, "text-anchor": "middle" }).textContent = lab;
  });
  for (const sr of series) {
    let d = "", pen = false;
    sr.points.forEach((v, i) => {
      if (v == null || Number.isNaN(v)) { pen = false; return; }
      d += (pen ? "L" : "M") + x(i).toFixed(1) + " " + y(v).toFixed(1);
      pen = true;
    });
    if (d) sEl(s, "path", { d, fill: "none", stroke: sr.color, "stroke-width": 1.5 });
  }
  return s;
}

// histogram renders accepted/rejected score distributions with an optional
// threshold line between max-rejected and min-accepted.
function histogram(scores, W, H) {
  W = W || 460; H = H || 160;
  const s = svg(W, H);
  const vals = scores.map(p => p.score);
  if (!vals.length) return s;
  const lo = Math.min(...vals), hi = Math.max(...vals);
  const span = hi - lo || 1;
  const BINS = 24, padB = 16;
  const counts = [];
  for (let i = 0; i < BINS; i++) counts.push({ acc: 0, rej: 0 });
  for (const p of scores) {
    const b = Math.min(BINS - 1, Math.floor((p.score - lo) / span * BINS));
    if (p.accepted) counts[b].acc++; else counts[b].rej++;
  }
  const max = Math.max(...counts.map(c => c.acc + c.rej));
  const bw = W / BINS;
  counts.forEach((c, i) => {
    const hAcc = (H - padB) * c.acc / max, hRej = (H - padB) * c.rej / max;
    if (c.rej) sEl(s, "rect", { x: i * bw + 1, y: H - padB - hRej, width: bw - 2, height: hRej, fill: "#e06c5f" });
    if (c.acc) sEl(s, "rect", { x: i * bw + 1, y: H - padB - hRej - hAcc, width: bw - 2, height: hAcc, fill: "#58c08a" });
  });
  const accScores = scores.filter(p => p.accepted).map(p => p.score);
  const rejScores = scores.filter(p => !p.accepted).map(p => p.score);
  if (accScores.length && rejScores.length) {
    // The defense accepted high (or low) scores; place the threshold midway
    // across the decision boundary when the two classes separate.
    const minAcc = Math.min(...accScores), maxRej = Math.max(...rejScores);
    const thr = maxRej <= minAcc ? (maxRej + minAcc) / 2
      : (Math.max(...accScores) <= Math.min(...rejScores) ? (Math.max(...accScores) + Math.min(...rejScores)) / 2 : null);
    if (thr != null) {
      const tx = (thr - lo) / span * W;
      sEl(s, "line", { x1: tx, y1: 0, x2: tx, y2: H - padB, stroke: "#e0b35f", "stroke-width": 1.5, "stroke-dasharray": "4 3" });
    }
  }
  sEl(s, "text", { x: 2, y: H - 4, fill: "#7d8794", "font-size": 9 }).textContent = fmt(lo);
  sEl(s, "text", { x: W - 2, y: H - 4, fill: "#7d8794", "font-size": 9, "text-anchor": "end" }).textContent = fmt(hi);
  return s;
}

// scatter renders fingerprints: x = L2, y = cosine-to-mean; fill = ground
// truth (when known), outline = defense decision.
function scatter(records, W, H) {
  W = W || 460; H = H || 160;
  const s = svg(W, H);
  const pts = records.map(r => ({
    x: r.fingerprint.l2, y: r.fingerprint.cosMean,
    mal: !!r.malicious, dec: !!r.decided, acc: !!r.accepted,
  })).filter(p => Number.isFinite(p.x) && Number.isFinite(p.y));
  if (!pts.length) return s;
  const xs = pts.map(p => p.x), ys = pts.map(p => p.y);
  const xlo = Math.min(...xs), xhi = Math.max(...xs), ylo = Math.min(...ys), yhi = Math.max(...ys);
  const xspan = xhi - xlo || 1, yspan = yhi - ylo || 1;
  const px = v => 8 + (v - xlo) / xspan * (W - 16);
  const py = v => H - 14 - (v - ylo) / yspan * (H - 22);
  for (const p of pts) {
    sEl(s, "circle", {
      cx: px(p.x).toFixed(1), cy: py(p.y).toFixed(1), r: 3.5,
      fill: p.mal ? "#e06c5f" : "#5db3f0",
      stroke: p.dec ? (p.acc ? "#58c08a" : "#e0b35f") : "none",
      "stroke-width": 1.5, "fill-opacity": 0.8,
    });
  }
  sEl(s, "text", { x: W - 2, y: H - 2, fill: "#7d8794", "font-size": 9, "text-anchor": "end" }).textContent = "‖Δ‖₂ →";
  sEl(s, "text", { x: 2, y: 10, fill: "#7d8794", "font-size": 9 }).textContent = "cos(mean) ↑";
  return s;
}

// ---- round views (shared by live and replay tabs) --------------------------

function kpi(label, value) {
  return el("div", { class: "kpi" }, el("div", { class: "v" }, value), el("div", { class: "l" }, label));
}

function roundViews(rounds, summary) {
  const wrap = el("div", {});
  if (summary) {
    wrap.append(el("div", { class: "panel" }, el("h2", {}, "cumulative detection — " + (summary.defense || "?")),
      el("div", { class: "kpis" },
        kpi("aggregations", String(summary.aggregations)),
        kpi("TPR", pct(summary.tpr)), kpi("FPR", pct(summary.fpr)),
        kpi("precision", pct(summary.precision)), kpi("AUC", fmt(summary.auc)),
        kpi("TPR@1%FPR", pct(summary.tprAt1pctFpr)),
        kpi("malicious seen", String(summary.maliciousSeen)))));
  }
  const labels = rounds.map(a => String(a.round) + (a.seq ? "." + a.seq : ""));
  const m = a => a.metrics || {};
  const timeline = el("div", { class: "panel" }, el("h2", {}, "per-round TPR / FPR / AUC"));
  timeline.append(lineChart(labels, [
    { name: "TPR", color: "#58c08a", points: rounds.map(a => m(a).tpr) },
    { name: "FPR", color: "#e06c5f", points: rounds.map(a => m(a).fpr) },
    { name: "AUC", color: "#5db3f0", points: rounds.map(a => m(a).auc) },
  ]));
  timeline.append(el("div", { class: "legend" },
    el("span", {}, el("i", { style: "background:#58c08a" }), "TPR"),
    el("span", {}, el("i", { style: "background:#e06c5f" }), "FPR"),
    el("span", {}, el("i", { style: "background:#5db3f0" }), "AUC")));
  const last = rounds[rounds.length - 1];
  const hist = el("div", { class: "panel" }, el("h2", {}, "scores — round " + (last ? last.round : "–")));
  const scat = el("div", { class: "panel" }, el("h2", {}, "fingerprints — round " + (last ? last.round : "–")));
  if (last) {
    const scored = (last.records || []).filter(r => r.score != null)
      .map(r => ({ score: r.score, accepted: !!r.accepted }));
    hist.append(scored.length ? histogram(scored) : el("p", { class: "muted" }, "defense produced no scores"));
    hist.append(el("div", { class: "legend" },
      el("span", {}, el("i", { style: "background:#58c08a" }), "accepted"),
      el("span", {}, el("i", { style: "background:#e06c5f" }), "rejected"),
      el("span", {}, el("i", { style: "background:#e0b35f" }), "threshold")));
    scat.append(scatter(last.records || []));
    scat.append(el("div", { class: "legend" },
      el("span", {}, el("i", { style: "background:#e06c5f" }), "malicious"),
      el("span", {}, el("i", { style: "background:#5db3f0" }), "benign"),
      el("span", {}, "outline: accept/reject")));
  } else {
    hist.append(el("p", { class: "muted" }, "no rounds yet"));
  }
  wrap.append(el("div", { class: "row" }, timeline), el("div", { class: "row" }, hist, scat));
  return wrap;
}

// ---- tab machinery ---------------------------------------------------------

let teardown = null; // active tab's cleanup (stop timers)
function setStatus(text, cls) {
  const s = $("#status");
  s.textContent = text;
  s.className = "status" + (cls ? " " + cls : "");
}

function activate(btn, fn) {
  for (const b of $("#tabs").children) b.classList.toggle("active", b === btn);
  if (teardown) { teardown(); teardown = null; }
  $("#main").replaceChildren();
  teardown = fn($("#main")) || null;
}

// ---- live federation tab ---------------------------------------------------

// federationTab polls <prefix>/rounds?since=<cursor>, scheduling each poll
// when the previous one settles, and keeps an audit only if its cursor is
// past the last one seen, so no audit is shown twice.
function federationTab(prefix) {
  return main => {
    const rounds = []; // audits, oldest first, ring-bounded client-side
    let cursor = 0, summary = null, closed = false, timer = null;
    const view = el("div", {});
    main.append(view);
    const poll = async () => {
      try {
        const body = await (await fetch(prefix + "/rounds?since=" + cursor)).json();
        if (closed) return;
        let fresh = false;
        for (const it of body.rounds) {
          if (it.cursor <= cursor) continue;
          rounds.push(it.audit);
          if (rounds.length > 512) rounds.shift();
          cursor = it.cursor;
          fresh = true;
        }
        cursor = body.cursor;
        if (fresh || !summary) {
          summary = (await (await fetch(prefix + "/metrics")).json()).cumulative;
          if (closed) return;
          view.replaceChildren(roundViews(rounds, summary));
        }
        setStatus("live (polling)", "live");
      } catch { if (!closed) setStatus("poll error", "err"); }
      if (!closed) timer = setTimeout(poll, 1000);
    };
    poll();
    return () => { closed = true; clearTimeout(timer); setStatus(""); };
  };
}

// ---- fleet tab -------------------------------------------------------------

function fleetTab() {
  return main => {
    const panel = el("div", { class: "panel" }, el("h2", {}, "telemetry registry"));
    main.append(el("div", { class: "row" }, panel));
    const body = el("div", {});
    panel.append(body);
    const tick = async () => {
      try {
        const snap = await (await fetch("/metrics.json")).json();
        const tbl = el("table", {}, el("tr", {},
          el("th", {}, "metric"), el("th", {}, "labels"),
          el("th", { class: "num" }, "value"), el("th", { class: "num" }, "count"), el("th", { class: "num" }, "sum (s)")));
        for (const fam of snap.families || []) {
          for (const sr of fam.series || []) {
            tbl.append(el("tr", {},
              el("td", {}, fam.name), el("td", { class: "muted" }, sr.labels || ""),
              el("td", { class: "num" }, sr.value == null ? "" : String(sr.value)),
              el("td", { class: "num" }, sr.count == null ? "" : String(sr.count)),
              el("td", { class: "num" }, sr.sum == null ? "" : sr.sum.toFixed(3))));
          }
        }
        body.replaceChildren(tbl);
        setStatus("fleet: scraping /metrics.json", "live");
      } catch { setStatus("fleet scrape error", "err"); }
    };
    tick();
    const timer = setInterval(tick, 2000);
    return () => { clearInterval(timer); setStatus(""); };
  };
}

// ---- replay / diff tab -----------------------------------------------------

function replayTab() {
  return main => {
    const api = "api/replay";
    const controls = el("div", { class: "controls" });
    const stage = el("div", {});
    main.append(el("div", { class: "panel" }, el("h2", {}, "time-travel"), controls, stage));
    let runs = [], cur = null, idx = 0, windowN = 64;

    const runSel = el("select", {});
    const slider = el("input", { type: "range", min: 0, max: 0, value: 0 });
    const pos = el("span", { class: "muted" }, "–");
    const diffSel = el("select", {});
    controls.append("run:", runSel,
      el("button", { onclick: () => seek(idx - 1) }, "⏴ step"),
      slider, pos,
      el("button", { onclick: () => seek(idx + 1) }, "step ⏵"),
      "diff vs:", diffSel,
      el("button", { onclick: showDiff }, "diff"));

    async function loadRuns() {
      runs = await (await fetch(api + "/runs")).json();
      runSel.replaceChildren(...runs.map(r => el("option", { value: r.name }, `${r.name} (${r.source}, ${r.rounds}r)`)));
      diffSel.replaceChildren(...runs.map(r => el("option", { value: r.name }, r.name)));
      if (runs.length) selectRun(runs[0].name);
      else stage.append(el("p", { class: "muted" }, "no replay runs loaded (-dash-replay)"));
    }
    async function selectRun(name) {
      cur = runs.find(r => r.name === name);
      slider.max = Math.max(0, cur.rounds - 1);
      seek(cur.rounds - 1);
    }
    async function seek(i) {
      if (!cur) return;
      idx = Math.max(0, Math.min(cur.rounds - 1, i));
      slider.value = idx;
      pos.textContent = `${idx + 1}/${cur.rounds}`;
      const from = Math.max(0, idx - windowN + 1);
      const body = await (await fetch(`${api}/rounds?run=${encodeURIComponent(cur.name)}&from=${from}&n=${idx - from + 1}`)).json();
      const audits = body.rounds.map(r => r.audit);
      stage.replaceChildren(roundViews(audits, null));
      const accs = body.rounds.map(r => r.accuracy).filter(a => a != null);
      if (accs.length) {
        const p = el("div", { class: "panel" }, el("h2", {}, "accuracy"));
        p.append(lineChart(audits.map(a => String(a.round)), [
          { name: "acc", color: "#5db3f0", points: body.rounds.map(r => r.accuracy) }]));
        stage.append(el("div", { class: "row" }, p));
      }
    }
    async function showDiff() {
      if (!cur) return;
      const b = diffSel.value;
      const d = await (await fetch(`${api}/diff?a=${encodeURIComponent(cur.name)}&b=${encodeURIComponent(b)}`)).json();
      const tbl = el("table", {}, el("tr", {},
        el("th", {}, "#"), el("th", { class: "num" }, "TPR a"), el("th", { class: "num" }, "TPR b"), el("th", { class: "num" }, "ΔTPR"),
        el("th", { class: "num" }, "FPR a"), el("th", { class: "num" }, "FPR b"), el("th", { class: "num" }, "ΔFPR"),
        el("th", { class: "num" }, "ΔAUC"), el("th", { class: "num" }, "Δacc")));
      const cell = (v, signed) => {
        const td = el("td", { class: "num" }, v == null ? "–" : (signed && v > 0 ? "+" : "") + v.toFixed(3));
        if (signed && v != null && v !== 0) td.classList.add(v > 0 ? "pos" : "neg");
        return td;
      };
      for (const row of d.rounds) {
        tbl.append(el("tr", {}, el("td", {}, String(row.index)),
          cell(row.a.tpr), cell(row.b.tpr), cell(row.delta.tpr, true),
          cell(row.a.fpr), cell(row.b.fpr), cell(row.delta.fpr, true),
          cell(row.delta.auc, true), cell(row.delta.accuracy, true)));
      }
      const note = d.aExtra || d.bExtra
        ? el("p", { class: "muted" }, `aligned ${d.aligned} rounds; ${d.aExtra} extra in a, ${d.bExtra} in b`) : "";
      stage.replaceChildren(el("div", { class: "panel" }, el("h2", {}, `diff: ${d.a} vs ${d.b}`), note, tbl));
    }
    runSel.addEventListener("change", () => selectRun(runSel.value));
    slider.addEventListener("input", () => seek(Number(slider.value)));
    loadRuns().catch(() => stage.append(el("p", { class: "muted" }, "replay API unavailable")));
    return () => setStatus("");
  };
}

// ---- boot ------------------------------------------------------------------

(async () => {
  let cfg;
  try {
    cfg = await (await fetch("api/config")).json();
  } catch {
    $("#main").replaceChildren(el("p", { class: "muted" }, "config unavailable — is the ops server running?"));
    return;
  }
  document.title = cfg.title;
  $("#title").textContent = cfg.title;
  const tabs = $("#tabs");
  const add = (label, fn) => {
    const b = el("button", { onclick: () => activate(b, fn) }, label);
    tabs.append(b);
  };
  for (const fed of cfg.federations || []) {
    add(fed.replace(/^\/forensics\/?/, "") || "live", federationTab(fed));
  }
  add("fleet", fleetTab());
  if (cfg.replay) add("replay", replayTab());
  tabs.firstElementChild.click();
})();
