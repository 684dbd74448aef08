// Testdata for the sendcheck analyzer.
package sendcheck

import "transport"

func good(c transport.Conn) error {
	if err := c.Send(nil); err != nil {
		return err
	}
	p, err := c.Recv()
	if err != nil {
		return err
	}
	_ = p
	if err := transport.SendElems(c, nil); err != nil {
		return err
	}
	c.Close() // Close is cleanup, not protocol traffic
	return nil
}

func bad(c transport.Conn) {
	c.Send(nil)      // want `result of c.Send is unchecked`
	_ = c.Send(nil)  // want `error result of c.Send assigned to _`
	p, _ := c.Recv() // want `error result of c.Recv assigned to _`
	_ = p
	go c.Send(nil)                    // want `started with 'go' discards its error`
	transport.SendElems(c, nil)       // want `result of transport.SendElems is unchecked`
	x, _ := transport.RecvElems(c, 3) // want `error result of transport.RecvElems assigned to _`
	_ = x
	transport.SendBytes(c, nil)        // want `result of transport.SendBytes is unchecked`
	y, _ := transport.RecvCapped(c, 8) // want `error result of transport.RecvCapped assigned to _`
	_ = y
	//lint:allow sendcheck testdata: deliberate fire-and-forget
	c.Send(nil)
}

func deferred(c transport.Conn) {
	defer c.Send(nil) // want `deferred c.Send discards its error`
}
