package main

import (
	"os/exec"
	"syscall"
)

// dieWithParent has the kernel kill the child if the benchmark itself is
// killed without a chance to clean up.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
