//go:build !amd64 || purego

package tensor

import "testing"

// TestKernelPathLogged is the portable build's twin of the amd64 test of
// the same name.
func TestKernelPathLogged(t *testing.T) {
	t.Log("tensor kernels: portable Go")
	t.Log("tensor exp/log/tanh: math package")
}
