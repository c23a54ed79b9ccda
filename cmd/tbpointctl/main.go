// Command tbpointctl is the command-line client for tbpointd.
//
//	tbpointctl submit -scale 0.02 -bench stream accuracy   # prints the job ID
//	tbpointctl wait j000001                                # blocks, prints status
//	tbpointctl result -o results.json j000001
//	tbpointctl cancel j000001
//
// The daemon address comes from -addr or the TBPOINTD_ADDR environment
// variable (default http://127.0.0.1:8338). Status lines are one-per-job
// key=value text; internal/e2e parses them back into the JobStatus fields.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tbpoint/internal/durable"
	"tbpoint/internal/server"
	"tbpoint/internal/server/client"
)

func usage() {
	fmt.Fprintln(os.Stderr, `usage: tbpointctl [-addr URL] <command> [flags] [args]

commands:
  submit [flags] <target>...   submit a job, print its ID
  status <id>                  print one job's status line
  wait [-poll d] <id>          block until terminal; exit 0 only for done
  events <id>                  stream status lines until terminal
  result [-o file] <id>        download the job's results.json
  report <id>                  print the job's report text
  cancel <id>                  cancel a job
  list [-state s]              print a status line per job (optionally only
                               state s, e.g. quarantined)
  metrics                      print the server metrics snapshot (JSON)`)
	os.Exit(2)
}

func main() {
	defaultAddr := os.Getenv("TBPOINTD_ADDR")
	if defaultAddr == "" {
		defaultAddr = "http://127.0.0.1:8338"
	}
	addr := flag.String("addr", defaultAddr, "tbpointd base URL")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := client.New(*addr)
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	var err error
	switch cmd {
	case "submit":
		err = cmdSubmit(ctx, c, args)
	case "status":
		err = withJob(args, func(id string) error {
			st, err := c.Status(ctx, id)
			if err != nil {
				return err
			}
			fmt.Println(statusLine(st))
			return nil
		})
	case "wait":
		err = cmdWait(ctx, c, args)
	case "events":
		err = withJob(args, func(id string) error {
			return c.Events(ctx, id, func(st server.JobStatus) error {
				fmt.Println(statusLine(st))
				return nil
			})
		})
	case "result":
		err = cmdResult(ctx, c, args)
	case "report":
		err = withJob(args, func(id string) error {
			text, err := c.Report(ctx, id)
			if err != nil {
				return err
			}
			fmt.Print(text)
			return nil
		})
	case "cancel":
		err = withJob(args, func(id string) error {
			st, err := c.Cancel(ctx, id)
			if err != nil {
				return err
			}
			fmt.Println(statusLine(st))
			return nil
		})
	case "list":
		err = cmdList(ctx, c, args)
	case "metrics":
		data, merr := c.Metrics(ctx)
		if merr != nil {
			err = merr
			break
		}
		os.Stdout.Write(data)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tbpointctl:", err)
		os.Exit(1)
	}
}

func withJob(args []string, f func(id string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one job ID, got %d args", len(args))
	}
	return f(args[0])
}

// statusLine renders a job as one parseable key=value line. failure_kind is
// empty for healthy jobs and error|panic|stuck|quarantined for failed ones,
// which tells a supervision verdict from an ordinary run error.
func statusLine(st server.JobStatus) string {
	return fmt.Sprintf("id=%s state=%s wall_seconds=%.3f cache_hits=%d cache_misses=%d subcell_hits=%d subcell_misses=%d outcome_hits=%d outcome_misses=%d cells_failed=%d requeues=%d run_requeues=%d failure_kind=%s error=%q",
		st.ID, st.State, st.WallSeconds, st.CacheHits, st.CacheMisses,
		st.SubcellHits, st.SubcellMisses, st.OutcomeHits, st.OutcomeMisses,
		st.CellsFailed, st.Requeues, st.RunRequeues, st.FailureKind(), st.Error)
}

func cmdList(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	state := fs.String("state", "", "only jobs in this state (e.g. quarantined, failed, done)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("list: unexpected args %v", fs.Args())
	}
	jobs, err := c.JobsInState(ctx, server.JobState(*state))
	if err != nil {
		return err
	}
	for _, st := range jobs {
		fmt.Println(statusLine(st))
	}
	return nil
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	scale := fs.Float64("scale", 1.0, "workload scale factor")
	seed := fs.Uint64("seed", 0, "workload/baseline seed")
	bench := fs.String("bench", "", "comma-separated benchmark subset")
	samplers := fs.String("samplers", "", "comma-separated estimation strategies (also 'default', 'all')")
	samples := fs.Int("samples", 0, "Monte-Carlo samples for fig5 (0 = default)")
	retries := fs.Int("retries", 0, "attempts per grid cell (0 = default 1)")
	cellDeadline := fs.Duration("cell-deadline", 0, "wall-time budget per grid cell")
	deadline := fs.Duration("deadline", 0, "wall-time budget for the whole job")
	noCache := fs.Bool("no-cache", false, "compute every cell fresh, ignoring the artifact cache")
	clientName := fs.String("client", "", "tenant name for fair-share scheduling (empty = the shared anon queue)")
	priority := fs.Int("priority", 0, "job priority 0..9: widens this client's dispatcher share, never starves others")
	wait := fs.Bool("wait", false, "block until the job is terminal; print its status line")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("submit: no targets given")
	}
	spec := server.JobSpec{
		Targets:      fs.Args(),
		Scale:        *scale,
		Seed:         *seed,
		Samples:      *samples,
		Retries:      *retries,
		CellDeadline: server.Duration(*cellDeadline),
		Deadline:     server.Duration(*deadline),
		NoCache:      *noCache,
		Client:       *clientName,
		Priority:     *priority,
	}
	if *bench != "" {
		spec.Benchmarks = strings.Split(*bench, ",")
	}
	if *samplers != "" {
		spec.Samplers = strings.Split(*samplers, ",")
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	if !*wait {
		fmt.Println(st.ID)
		return nil
	}
	final, err := c.Wait(ctx, st.ID, 0)
	if err != nil {
		return err
	}
	fmt.Println(statusLine(final))
	if final.State != server.StateDone {
		os.Exit(1)
	}
	return nil
}

func cmdWait(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	poll := fs.Duration("poll", 200*time.Millisecond, "status poll interval when the daemon's /events stream is unavailable")
	fs.Parse(args)
	return withJob(fs.Args(), func(id string) error {
		final, err := c.Wait(ctx, id, *poll)
		if err != nil {
			return err
		}
		fmt.Println(statusLine(final))
		if final.State != server.StateDone {
			os.Exit(1)
		}
		return nil
	})
}

func cmdResult(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	out := fs.String("o", "", "write the results.json here instead of stdout")
	fs.Parse(args)
	return withJob(fs.Args(), func(id string) error {
		data, err := c.Result(ctx, id)
		if err != nil {
			return err
		}
		if *out == "" {
			os.Stdout.Write(data)
			return nil
		}
		// Atomic: a re-download never leaves a truncated results.json behind.
		return durable.WriteFileBytes(*out, data)
	})
}
