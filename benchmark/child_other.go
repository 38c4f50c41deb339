//go:build !linux

package main

import "os/exec"

// dieWithParent is Linux-only; elsewhere the exit hooks are the only net.
func dieWithParent(*exec.Cmd) {}
