// Package droppedfix seeds droppederr violations in every discarded
// form, next to exempt and justified-suppression sites that must stay
// silent.
package droppedfix

import (
	"errors"
	"fmt"
	"strings"
)

func fail() error { return errors.New("boom") }

func failPair() (int, error) { return 0, errors.New("boom") }

// Bare drops the error of a call statement.
func Bare() {
	fail() // want:droppederr
}

// Deferred drops the error of a deferred call.
func Deferred() {
	defer fail() // want:droppederr
}

// Spawned drops the error of a go statement.
func Spawned() {
	go fail() // want:droppederr
}

// Blank sends a single error result to the blank identifier.
func Blank() {
	_ = fail() // want:droppederr
}

// TupleBlank blanks the error slot of a tuple return.
func TupleBlank() int {
	v, _ := failPair() // want:droppederr
	return v
}

// Quiet exercises the paths that must not be flagged: documented
// never-fail writers, fmt's print family, and a justified suppression.
func Quiet() string {
	var sb strings.Builder
	sb.WriteString("ok")
	fmt.Println("ok")
	fail() //sebdb:ignore-err fixture demonstrates a justified suppression
	return sb.String()
}

// Handled is the control: errors checked normally.
func Handled() error {
	if err := fail(); err != nil {
		return err
	}
	return nil
}

// Stale keeps a reasoned directive over a call that no longer returns an
// error: the directive silences nothing and is reported itself.
func Stale() {
	//sebdb:ignore-err the callee used to return an error -- want:droppederr
	quiet()
}

func quiet() {}
