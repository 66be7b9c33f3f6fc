// Command reprowd-worker works tasks from a reprowd-server over its REST
// API — the role a browser-based PyBossa worker plays. In interactive mode
// it shows each task and reads your answer from stdin; in auto mode it
// simulates a worker with a given accuracy against a truth field in the
// task payload (for demos and load tests).
//
// The worker exits once the platform says no task is left for it. While
// every remaining task is leased to other workers it waits and asks again
// every few seconds: a lease either ends in an answer or expires.
//
// Usage:
//
//	reprowd-worker -platform http://localhost:7070 -project reprowd-image_label -worker alice
//	reprowd-worker -platform ... -project ... -worker bot-1 -auto -truth-field truth -accuracy 0.9
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
)

// leaseWait is the pause before asking again when every task still open
// for this worker is leased to someone else.
const leaseWait = 5 * time.Second

func main() {
	var (
		base       = flag.String("platform", "http://localhost:7070", "platform base URL")
		project    = flag.String("project", "", "project name (required)")
		worker     = flag.String("worker", "", "worker id (required)")
		maxTasks   = flag.Int("max", 0, "stop after this many tasks (0 = until none left)")
		auto       = flag.Bool("auto", false, "answer automatically instead of interactively")
		truthField = flag.String("truth-field", "truth", "payload field holding the true answer (auto mode)")
		accuracy   = flag.Float64("accuracy", 1.0, "probability of answering the truth (auto mode)")
		options    = flag.String("options", "Yes,No", "comma-separated answer options")
		seed       = flag.Int64("seed", 1, "rng seed (auto mode)")
		logLevel   = flag.String("log-level", "info", "log verbosity: debug, info, warn, error")
		logFormat  = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()
	// Task rendering and answers stay on stdout (they are the interactive
	// UI); diagnostics go to the structured logger on stderr.
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "reprowd-worker:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)
	if *project == "" || *worker == "" {
		fmt.Fprintln(os.Stderr, "reprowd-worker: -project and -worker are required")
		os.Exit(2)
	}

	client := platform.NewHTTPClient(*base, nil)
	proj, ok, err := client.FindProject(*project)
	if err != nil {
		fatal(err)
	}
	if !ok {
		fatal(fmt.Errorf("project %q not found on %s", *project, *base))
	}

	opts := strings.Split(*options, ",")
	rng := rand.New(rand.NewSource(*seed))
	in := bufio.NewScanner(os.Stdin)
	done := 0
	waiting := false

	for *maxTasks == 0 || done < *maxTasks {
		task, err := client.RequestTask(proj.ID, *worker)
		if errors.Is(err, platform.ErrNoTaskLeft) {
			fmt.Printf("no tasks left for %s — answered %d\n", *worker, done)
			return
		}
		if errors.Is(err, platform.ErrNoTask) {
			if !waiting {
				slog.Info("every open task is leased to another worker; waiting", "retry_every", leaseWait)
				waiting = true
			}
			time.Sleep(leaseWait)
			continue
		}
		if err != nil {
			fatal(err)
		}
		waiting = false

		var answer string
		if *auto {
			answer = autoAnswer(rng, task.Payload[*truthField], opts, *accuracy)
		} else {
			printTask(task, opts)
			answer = readAnswer(in, opts)
			if answer == "" {
				fmt.Println("bye")
				return
			}
		}
		if _, err := client.Submit(task.ID, *worker, answer); err != nil &&
			!errors.Is(err, platform.ErrTaskCompleted) {
			fatal(err)
		}
		done++
		if *auto {
			fmt.Printf("task %d -> %s\n", task.ID, answer)
		}
	}
	fmt.Printf("quota reached — answered %d\n", done)
}

// printTask renders the task payload and options for a human.
func printTask(task platform.Task, opts []string) {
	fmt.Printf("\n--- task %d ---\n", task.ID)
	fields := make([]string, 0, len(task.Payload))
	for k := range task.Payload {
		fields = append(fields, k)
	}
	sort.Strings(fields)
	for _, f := range fields {
		fmt.Printf("  %s: %s\n", f, task.Payload[f])
	}
	fmt.Printf("answer [%s] (empty to quit): ", strings.Join(opts, "/"))
}

// readAnswer loops until a valid option (or EOF/empty for quit).
func readAnswer(in *bufio.Scanner, opts []string) string {
	for in.Scan() {
		ans := strings.TrimSpace(in.Text())
		if ans == "" {
			return ""
		}
		for _, o := range opts {
			if strings.EqualFold(ans, o) {
				return o
			}
		}
		fmt.Printf("invalid; one of [%s]: ", strings.Join(opts, "/"))
	}
	return ""
}

// autoAnswer answers the truth with probability accuracy, else a uniformly
// random wrong option.
func autoAnswer(rng *rand.Rand, truth string, opts []string, accuracy float64) string {
	if truth != "" && rng.Float64() < accuracy {
		return truth
	}
	wrong := make([]string, 0, len(opts))
	for _, o := range opts {
		if o != truth {
			wrong = append(wrong, o)
		}
	}
	if len(wrong) == 0 {
		return truth
	}
	return wrong[rng.Intn(len(wrong))]
}

func fatal(err error) {
	slog.Error("fatal", "err", err)
	os.Exit(1)
}
