// Package report renders a run for the operator watching it: one progress
// line per completed grid cell and the startup line pointing at the
// dashboard. The machine-readable record of every outcome is the run store
// (experiment.Store, the -store JSONL journal), not this package.
package report

import (
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/experiment"
)

// DashboardHint writes the one-time startup line pointing the operator at
// the embedded dashboard, from the ops listener's resolved address — so an
// ephemeral ":0" bind prints its real port. An unspecified host (":9090",
// "0.0.0.0:…", "[::]:…") is rewritten to localhost: that is the URL a
// browser on the operator's machine can actually open.
func DashboardHint(w io.Writer, bound string) {
	if host, port, err := net.SplitHostPort(bound); err == nil {
		if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
			bound = net.JoinHostPort("localhost", port)
		}
	}
	fmt.Fprintf(w, "dashboard: http://%s/dash/\n", bound)
}

// Progress returns a grid progress callback that streams one line per
// completed cell to w: cells-done/total, the cell's identity, whether it
// was replayed from the run store or failed, and the estimated time
// remaining. When the runner carries sweep telemetry, each line also
// reports this worker's fleet contribution: cells it executed, its
// throughput, and claim attempts lost to other workers' live leases. The
// runner serializes event delivery, so the callback needs no locking.
func Progress(w io.Writer) func(experiment.ProgressEvent) {
	return func(ev experiment.ProgressEvent) {
		cell := cellLabel(ev.Config)
		status := ""
		switch {
		case ev.Err != nil:
			status = fmt.Sprintf(" FAILED: %v", ev.Err)
		case ev.Remote:
			status = " (completed by another worker)"
		case ev.Skipped:
			status = " (resumed from store)"
		}
		eta := ""
		if ev.ETA > 0 {
			eta = fmt.Sprintf(" eta %s", ev.ETA.Round(time.Second))
		}
		fleet := ""
		if ev.WorkerCells > 0 {
			fleet = fmt.Sprintf(" worker %d cells %.1f/min", ev.WorkerCells, ev.CellsPerMin)
			if ev.LeaseConflicts > 0 {
				fleet += fmt.Sprintf(" conflicts %d", ev.LeaseConflicts)
			}
		}
		fmt.Fprintf(w, "[%d/%d] %s%s elapsed %s%s%s\n",
			ev.Done, ev.Total, cell, status, ev.Elapsed.Round(time.Millisecond), eta, fleet)
	}
}

// cellLabel identifies a grid cell for humans. Beyond the headline
// dataset/attack/defense/beta, it appends whichever parameters distinguish
// cells in single-axis sweeps — the paper's (attacker fraction, |S|,
// regularization, perturbation, seed), the engine's scenario axes
// (partition, sampler, churn, server optimizer, async), the population
// axes (backend, placement, hierarchy) and the update codec — so
// progress/ETA lines stay unique in grids like samplesize, participation,
// productionscale or compression where the headline fields are constant.
func cellLabel(c experiment.Config) string {
	label := fmt.Sprintf("%s/%s/%s beta=%g", c.Dataset, c.Attack, c.Defense, c.Beta)
	if c.AttackerFrac > 0 {
		label += fmt.Sprintf(" frac=%g", c.AttackerFrac)
	}
	if c.SampleCount > 0 {
		label += fmt.Sprintf(" |S|=%d", c.SampleCount)
	}
	if c.NoReg {
		label += " noreg"
	}
	if c.PerturbStd > 0 {
		label += fmt.Sprintf(" perturb=%g", c.PerturbStd)
	}
	if c.Partition != "" {
		label += " part=" + c.Partition
	}
	if c.Sampler != "" {
		label += fmt.Sprintf(" samp=%s", c.Sampler)
		if c.SampleRate > 0 {
			label += fmt.Sprintf(":%g", c.SampleRate)
		}
	}
	if c.DropoutProb > 0 || c.StragglerProb > 0 {
		label += fmt.Sprintf(" churn=%g/%g", c.DropoutProb, c.StragglerProb)
	}
	if c.ServerOpt != "" {
		label += " sopt=" + c.ServerOpt
	}
	if c.AsyncBuffer > 0 {
		label += fmt.Sprintf(" async=%d", c.AsyncBuffer)
	}
	if c.Population != "" {
		label += fmt.Sprintf(" pop=%s:N=%d", c.Population, c.TotalClients)
	}
	if c.Placement != "" {
		label += " place=" + c.Placement
	}
	if c.Groups > 0 {
		label += fmt.Sprintf(" groups=%d", c.Groups)
	}
	if c.Codec != "" {
		label += " codec=" + c.Codec
		if c.TopK > 0 {
			label += fmt.Sprintf(",topk=%g", c.TopK)
		}
		if c.ErrorFeedback {
			label += ",ef"
		}
	}
	if c.Seed != 1 {
		label += fmt.Sprintf(" seed=%d", c.Seed)
	}
	return label
}
