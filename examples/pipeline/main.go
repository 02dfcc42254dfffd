// Command pipeline recreates the paper's §2 anecdote — "one student
// project constructed a distributed pipeline to manipulate video streams
// in the MPEG format ... mobile agents written in C" — as a three-stage
// processing pipeline whose stages are toy-C agents. Each stage's source
// is shipped to a different host's vm_c, compiled on arrival through the
// figure-3 chain (ag_cc → ag_exec → vm_bin), and then processes the
// frames flowing through it.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"tax"
	"tax/internal/agent"
	"tax/internal/briefcase"
	"tax/internal/firewall"
	"tax/internal/services"
	"tax/internal/vm"
)

const frames = 5

// stageSource is the toy-C each stage ships; the program directive picks
// the pre-deployed processing body.
func stageSource(stage string) string {
	return "// program: stage_" + stage + "\n" +
		"int agMain(briefcase bc) { /* " + stage + " frames */ }\n"
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	sys, err := tax.NewSystem(tax.LAN100)
	if err != nil {
		return err
	}
	defer func() { _ = sys.Close() }()
	hosts := []string{"decode-host", "scale-host", "encode-host"}
	for _, h := range append([]string{"studio"}, hosts...) {
		if _, err := sys.AddNode(h, tax.NodeOptions{}); err != nil {
			return err
		}
	}
	sysName := sys.SystemPrincipal.Name()
	studio, err := sys.Node("studio")
	if err != nil {
		return err
	}

	// The collector at the studio gathers finished frames.
	done := make(chan string, frames)
	studio.Programs.Register("collector", func(ctx *agent.Context) error {
		for i := 0; i < frames; i++ {
			bc, err := ctx.Await(20 * time.Second)
			if err != nil {
				return err
			}
			frame, _ := bc.GetString("FRAME")
			trail, _ := bc.GetString("TRAIL")
			done <- frame + " via" + trail
		}
		return nil
	})
	if _, err := studio.VM.Launch(sysName, "collector", "collector", nil); err != nil {
		return err
	}

	// Stage bodies: pre-deployed "compiled C" — each forwards to the
	// next stage named in its briefcase ARGS.
	stages := []string{"decode", "scale", "encode"}
	mkStage := func(stage string) tax.Handler {
		return func(ctx *agent.Context) error {
			next, _ := ctx.Briefcase().GetString(tax.FolderArgs)
			for {
				bc, err := ctx.Await(10 * time.Second)
				if err != nil {
					return nil // idle: pipeline drained
				}
				ctx.Charge(20 * time.Millisecond) // per-frame work
				trail, _ := bc.GetString("TRAIL")
				bc.SetString("TRAIL", trail+" "+stage+"@"+ctx.Host())
				if err := ctx.Activate(next, bc); err != nil {
					return err
				}
			}
		}
	}
	// Deploy each stage's compiled form on its host: the deterministic
	// image the toy compiler will produce, bound to the stage body.
	for i, stage := range stages {
		n, err := sys.Node(hosts[i])
		if err != nil {
			return err
		}
		bin, err := services.CompileBinary(stageSource(stage), n.Arch)
		if err != nil {
			return err
		}
		bin.Handler = mkStage(stage)
		n.Binaries.Deploy(bin)
	}

	// Ship each stage's C source to its host's vm_c; the figure-3 chain
	// compiles and activates it. Stages are wired back-to-front so each
	// knows its successor's address.
	launcher, err := studio.FW.Register("main", sysName, "launcher")
	if err != nil {
		return err
	}
	next := "tacoma://studio/" + sysName + "/collector"
	for i := len(stages) - 1; i >= 0; i-- {
		bc := tax.NewBriefcase()
		bc.SetString(tax.FolderCode, stageSource(stages[i]))
		bc.SetString(tax.FolderArgs, next)
		bc.SetString(firewall.FolderKind, firewall.KindTransfer)
		bc.SetString(vm.FolderAgentName, "stage-"+stages[i])
		bc.SetString(briefcase.FolderSysTarget, "tacoma://"+hosts[i]+"//vm_c")
		if err := studio.FW.Send(launcher.GlobalURI(), bc); err != nil {
			return err
		}
		next = "tacoma://" + hosts[i] + "/" + sysName + "/stage-" + stages[i]
		fmt.Printf("shipped %s stage (C source) to %s/vm_c\n", stages[i], hosts[i])
	}

	// Feed the frames to the first stage. Sends to agents still being
	// compiled park in the firewall queue until they register — the
	// §3.2 "has not yet arrived at the site" machinery doing real work.
	for i := 1; i <= frames; i++ {
		bc := tax.NewBriefcase()
		bc.SetString("FRAME", "frame-"+strconv.Itoa(i))
		bc.SetString(briefcase.FolderSysTarget, next)
		if err := studio.FW.Send(launcher.GlobalURI(), bc); err != nil {
			return err
		}
	}

	for i := 0; i < frames; i++ {
		fmt.Println("  finished:", <-done)
	}
	return nil
}
