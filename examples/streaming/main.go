// Streaming: Ken as a distributed-streams system (§6 "Application to
// Caching, Distributed Streams").
//
// A source process colocated with the sensors and a sink process at the
// base station run replicated models and exchange compact binary frames
// over a real TCP connection. The sink continuously answers SELECT *
// within ±ε while the wire carries only the model-surprising values —
// plus a heartbeat frame every 24 h for loss robustness.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math"
	"net"

	"ken/internal/cliques"
	"ken/internal/model"
	"ken/internal/stream"
	"ken/internal/trace"
)

const (
	trainHours = 100
	testHours  = 600
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	exp, err := trace.LoadExperiment("garden", 17, trainHours, testHours, 0)
	if err != nil {
		return err
	}
	n, train, test, eps := len(exp.Eps), exp.Train, exp.Test, exp.Eps
	part, err := cliques.Runs(n, 2, cliques.RootFirst)
	if err != nil {
		return err
	}
	cfg := stream.Config{
		Partition:      part,
		Train:          train,
		Eps:            eps,
		FitCfg:         model.FitConfig{Period: 24},
		HeartbeatEvery: 24,
	}

	src, err := stream.NewSource(cfg)
	if err != nil {
		return err
	}
	sink, err := stream.NewReplica(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("sink listening on %s, source streaming %d hourly frames (ε=0.5°C)\n",
		ln.Addr(), testHours)

	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		done <- sink.Serve(conn)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	bytesSent := 0
	values := 0
	for _, row := range test {
		f, err := src.Collect(row)
		if err != nil {
			return err
		}
		values += len(f.Attrs)
		if err := stream.WriteFrame(conn, f, src.Resolution()); err != nil {
			return err
		}
		bytesSent += 4 + frameBytes(len(f.Attrs))
	}
	conn.Close()
	if err := <-done; err != nil {
		return err
	}

	// Audit the final answer against ground truth.
	est := sink.Answer().Estimates
	worst := 0.0
	for i, v := range test[len(test)-1] {
		worst = math.Max(worst, math.Abs(est[i]-v))
	}
	naive := testHours * n * 10 // ~10 bytes per (step, attr, float) triple
	frames, _, heartbeats := sink.Counts()
	fmt.Printf("frames applied   : %d (heartbeats: %d)\n", frames, heartbeats)
	fmt.Printf("values on wire   : %d of %d readings (%.1f%%)\n",
		values, testHours*n, 100*float64(values)/float64(testHours*n))
	fmt.Printf("approx wire bytes: %d (naive streaming ≈ %d, %.1fx reduction)\n",
		bytesSent, naive, float64(naive)/float64(bytesSent))
	fmt.Printf("final answer err : %.3f °C (bound 0.5)\n", worst)
	return nil
}

// frameBytes approximates an encoded frame's size for the report line.
func frameBytes(pairs int) int { return 4 + 5*pairs }
